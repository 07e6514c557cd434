"""Unit tests for the C type system."""

import pytest

from repro.frontend.ctypes_ import (ArrayType, CHAR, DOUBLE, FLOAT,
                                    FunctionType, INT, IntType, LONG,
                                    PointerType, SHORT, StructType,
                                    TypeError_, UINT, VOID, decay,
                                    integer_promote, layout_struct,
                                    pointer_target_size,
                                    usual_arithmetic_conversion)


class TestSizes:
    def test_integer_sizes(self):
        assert CHAR.sizeof() == 1
        assert SHORT.sizeof() == 2
        assert INT.sizeof() == 4
        assert LONG.sizeof() == 4  # 32-bit Titan

    def test_float_sizes(self):
        assert FLOAT.sizeof() == 4
        assert DOUBLE.sizeof() == 8

    def test_pointer_size(self):
        assert PointerType(base=DOUBLE).sizeof() == 4

    def test_array_size(self):
        assert ArrayType(base=FLOAT, length=100).sizeof() == 400

    def test_incomplete_array_size_raises(self):
        with pytest.raises(TypeError_):
            ArrayType(base=INT, length=None).sizeof()

    def test_function_size_raises(self):
        with pytest.raises(TypeError_):
            FunctionType(ret=INT).sizeof()

    def test_void_size_raises(self):
        with pytest.raises(TypeError_):
            VOID.sizeof()


class TestIntSemantics:
    def test_signed_range(self):
        assert INT.min_value() == -(2**31)
        assert INT.max_value() == 2**31 - 1

    def test_unsigned_range(self):
        assert UINT.min_value() == 0
        assert UINT.max_value() == 2**32 - 1

    def test_wrap_signed_overflow(self):
        assert INT.wrap(2**31) == -(2**31)

    def test_wrap_unsigned(self):
        assert UINT.wrap(-1) == 2**32 - 1

    def test_wrap_char(self):
        assert CHAR.wrap(200) == 200 - 256

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError_):
            IntType(kind="int128")


class TestQualifiers:
    def test_volatile_flag(self):
        v = INT.qualified(volatile=True)
        assert v.is_volatile and not INT.is_volatile

    def test_unqualified_strips(self):
        v = INT.qualified(const=True, volatile=True)
        assert v.unqualified() == INT

    def test_compatible_ignores_qualifiers(self):
        assert INT.qualified(const=True).compatible(INT)
        assert INT.compatible(INT.qualified(volatile=True))
        assert not INT.qualified(const=True).compatible(UINT)
        assert not PointerType(base=INT).compatible(
            PointerType(base=INT.qualified(const=True)))

    @pytest.mark.parametrize("ctype", [
        INT, FLOAT, PointerType(base=CHAR), ArrayType(base=INT, length=3),
        INT.qualified(const=True)], ids=str)
    def test_unqualified_is_a_new_object(self, ctype):
        # A catalog pickle records which IL nodes share a type object,
        # so handing back ``self`` would change catalog bytes.
        bare = ctype.unqualified()
        assert bare is not ctype and not bare.const and not bare.volatile
        assert bare == ctype.unqualified()
        assert list(vars(bare)) == list(vars(ctype))

    def test_kind_predicates(self):
        assert INT.is_integer and INT.is_arithmetic and INT.is_scalar
        assert FLOAT.is_float and FLOAT.is_scalar and not FLOAT.is_integer
        assert PointerType(base=INT).is_pointer
        assert PointerType(base=INT).is_scalar
        assert ArrayType(base=INT).is_array
        assert not ArrayType(base=INT).is_scalar
        assert VOID.is_void and not VOID.is_scalar
        assert not StructType(tag="s").is_scalar
        assert not FunctionType(ret=INT).is_arithmetic


class TestConversions:
    def test_promote_char_to_int(self):
        assert integer_promote(CHAR) == INT

    def test_promote_int_unchanged(self):
        assert integer_promote(INT) == INT

    def test_usual_int_float(self):
        assert usual_arithmetic_conversion(INT, FLOAT) == FLOAT

    def test_usual_float_double(self):
        assert usual_arithmetic_conversion(FLOAT, DOUBLE) == DOUBLE

    def test_usual_signed_unsigned_same_rank(self):
        assert usual_arithmetic_conversion(INT, UINT) == UINT

    def test_usual_char_short(self):
        assert usual_arithmetic_conversion(CHAR, SHORT) == INT

    def test_non_arithmetic_raises(self):
        with pytest.raises(TypeError_):
            usual_arithmetic_conversion(INT, PointerType(base=INT))


class TestDecayAndPointers:
    def test_array_decays_to_pointer(self):
        t = decay(ArrayType(base=FLOAT, length=8))
        assert isinstance(t, PointerType) and t.base == FLOAT

    def test_function_decays_to_pointer(self):
        t = decay(FunctionType(ret=INT))
        assert isinstance(t, PointerType)

    def test_scalar_decay_identity(self):
        assert decay(INT) == INT

    def test_pointer_target_size(self):
        assert pointer_target_size(PointerType(base=DOUBLE)) == 8

    def test_void_pointer_arithmetic_scale(self):
        assert pointer_target_size(PointerType(base=VOID)) == 1


class TestStructLayout:
    def test_natural_alignment(self):
        s = layout_struct("s", [("c", CHAR), ("i", INT)])
        assert s.field_named("i").offset == 4
        assert s.sizeof() == 8

    def test_packed_floats(self):
        s = layout_struct("v", [("x", FLOAT), ("y", FLOAT),
                                ("z", FLOAT)])
        assert [f.offset for f in s.fields] == [0, 4, 8]
        assert s.sizeof() == 12

    def test_embedded_array(self):
        s = layout_struct("v", [("pos", ArrayType(base=FLOAT, length=4)),
                                ("tag", INT)])
        assert s.field_named("tag").offset == 16
        assert s.sizeof() == 20

    def test_double_alignment(self):
        s = layout_struct("d", [("c", CHAR), ("d", DOUBLE)])
        assert s.field_named("d").offset == 8
        assert s.sizeof() == 16

    def test_union_layout(self):
        u = layout_struct("u", [("i", INT), ("d", DOUBLE)],
                          is_union=True)
        assert all(f.offset == 0 for f in u.fields)
        assert u.sizeof() == 8

    def test_missing_field_raises(self):
        s = layout_struct("s", [("a", INT)])
        with pytest.raises(TypeError_):
            s.field_named("b")

    def test_incomplete_struct_sizeof_raises(self):
        s = StructType(tag="fwd", complete=False)
        with pytest.raises(TypeError_):
            s.sizeof()
