"""Unit tests for the preprocessor."""

import pytest

from repro.frontend.preprocessor import (Preprocessor, PreprocessorError,
                                         preprocess)


class TestObjectMacros:
    def test_simple_define(self):
        assert "100" in preprocess("#define N 100\nint a[N];")

    def test_define_used_twice(self):
        out = preprocess("#define N 4\nint a[N], b[N];")
        assert out.count("4") == 2

    def test_undef(self):
        out = preprocess("#define N 1\n#undef N\nint N;")
        assert "int N" in out

    def test_nested_expansion(self):
        out = preprocess("#define A B\n#define B 7\nint x = A;")
        assert "7" in out

    def test_self_reference_does_not_loop(self):
        out = preprocess("#define X X\nint X;")
        assert "int X" in out

    def test_macro_not_expanded_in_string(self):
        out = preprocess('#define N 9\nchar *s = "N";')
        assert '"N"' in out

    def test_macro_name_must_match_whole_identifier(self):
        out = preprocess("#define N 9\nint NN;")
        assert "NN" in out

    def test_predefines_constructor_arg(self):
        pp = Preprocessor(defines={"TITAN": "1"})
        out = pp.preprocess("#ifdef TITAN\nint t;\n#endif")
        assert "int t" in out


class TestFunctionMacros:
    def test_simple_call(self):
        out = preprocess("#define SQ(x) ((x)*(x))\nint y = SQ(3);")
        assert "((3)*(3))" in out

    def test_two_args(self):
        out = preprocess("#define ADD(a,b) (a+b)\nint y = ADD(1, 2);")
        assert "(1+2)" in out

    def test_nested_parens_in_arg(self):
        out = preprocess("#define ID(x) x\nint y = ID(f(1,2));")
        assert "f(1,2)" in out

    def test_name_without_parens_not_expanded(self):
        out = preprocess("#define F(x) x\nint F;")
        assert "int F" in out

    def test_wrong_arity_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#define F(a,b) a\nint y = F(1);")

    def test_arguments_are_pre_expanded(self):
        out = preprocess(
            "#define N 5\n#define ID(x) x\nint y = ID(N);")
        assert "5" in out


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("#define X 1\n#ifdef X\nint a;\n#endif")
        assert "int a" in out

    def test_ifdef_not_taken(self):
        out = preprocess("#ifdef X\nint a;\n#endif")
        assert "int a" not in out

    def test_ifndef(self):
        out = preprocess("#ifndef X\nint a;\n#endif")
        assert "int a" in out

    def test_else(self):
        out = preprocess("#ifdef X\nint a;\n#else\nint b;\n#endif")
        assert "int b" in out and "int a" not in out

    def test_elif_chain(self):
        src = ("#define V 2\n#if V == 1\nint a;\n#elif V == 2\n"
               "int b;\n#else\nint c;\n#endif")
        out = preprocess(src)
        assert "int b" in out and "int a" not in out \
            and "int c" not in out

    def test_if_defined(self):
        out = preprocess("#define A 1\n#if defined(A)\nint x;\n#endif")
        assert "int x" in out

    def test_nested_conditionals(self):
        src = ("#define A 1\n#ifdef A\n#ifdef B\nint ab;\n#else\n"
               "int a_only;\n#endif\n#endif")
        out = preprocess(src)
        assert "int a_only" in out and "int ab" not in out

    def test_unterminated_if_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef A\nint x;")

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#endif")

    def test_arithmetic_condition(self):
        out = preprocess("#if 2 * 3 > 5\nint yes;\n#endif")
        assert "int yes" in out


class TestIncludes:
    def test_include_from_header_map(self):
        out = preprocess('#include "lib.h"\nint y;',
                         headers={"lib.h": "int from_header;"})
        assert "int from_header" in out and "int y" in out

    def test_angle_include(self):
        out = preprocess("#include <std.h>",
                         headers={"std.h": "int s;"})
        assert "int s" in out

    def test_include_defines_visible_after(self):
        out = preprocess('#include "n.h"\nint a[N];',
                         headers={"n.h": "#define N 12"})
        assert "a[12]" in out

    def test_missing_include_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess('#include "nope.h"')

    def test_include_cycle_detected(self):
        headers = {"a.h": '#include "b.h"', "b.h": '#include "a.h"'}
        with pytest.raises(PreprocessorError):
            preprocess('#include "a.h"', headers=headers)


class TestMisc:
    def test_pragma_passes_through(self):
        out = preprocess("#pragma safe\nint x;")
        assert "#pragma safe" in out

    def test_error_directive_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#error no titan here")

    def test_line_continuation(self):
        out = preprocess("#define LONG 1 + \\\n 2\nint x = LONG;")
        assert "1 + 2" in " ".join(out.split())

    def test_unknown_directive_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#frobnicate")


class TestLinePreservation:
    """Every consumed line leaves one line behind, so a line number
    after preprocessing is the line number in the source."""

    DIRECTIVES = ("#define N 8\n"
                  "float a[N];\n"
                  "#if 0\n"
                  "int dropped;\n"
                  "#else\n"
                  "#define SCALE(x) \\\n"
                  "    ((x) * \\\n"
                  "     2)\n"
                  "#endif\n"
                  "#pragma safe\n"
                  "void f(void)\n"
                  "{\n"
                  "    int i;\n"
                  "    for (i = 0; i < N; i++)\n"
                  "        a[i] = SCALE(i) + \\\n"
                  "            1;\n"
                  "}\n")

    def test_include_free_source_keeps_its_line_count(self):
        out = preprocess(self.DIRECTIVES)
        assert out.split("\n")[:-1] == [
            "", "float a[8];", "", "", "", "", "", "", "",
            "#pragma safe", "void f(void)", "{", "    int i;",
            "    for (i = 0; i < 8; i++)",
            "        a[i] = ((i) *      2) +             1;", "", "}", ""]
        assert len(out.split("\n")) == \
            len(self.DIRECTIVES.split("\n")) + 1

    def test_directive_free_source_is_unchanged(self):
        source = "int a;\n\n  /* c */ int b; // d\nint c;"
        assert preprocess(source) == source + "\n"

    def test_statement_lines_survive_a_define(self):
        # Regression: ``#define N 8`` on line 1 put the ``for`` of
        # source line 6 at ``/* L5 */``, and every remark and report
        # line after a directive was off the same way.
        from repro.frontend.lower import compile_to_il
        from repro.il.printer import format_program
        source = ("#define N 8\nfloat a[N];\nvoid f(void)\n{\n"
                  "    int i;\n    for (i = 0; i < N; i++)\n"
                  "        a[i] = 0;\n}\n")
        listing = format_program(compile_to_il(source), show_lines=True)
        assert "while (i < 8) {   /* L6 */" in listing
        assert "= 0.0;   /* L7 */" in listing
        assert "L5" not in listing

    def test_tokens_carry_source_lines(self):
        from repro.frontend.lexer import tokenize
        tokens = tokenize(preprocess(self.DIRECTIVES))
        by_value = {t.value: t.coord.line for t in tokens}
        assert by_value["float"] == 2
        assert by_value["safe"] == 10
        assert by_value["for"] == 14
        assert by_value["}"] == 17

    def test_included_lines_replace_the_include_line(self):
        out = preprocess('#include "h.h"\nint y;',
                         headers={"h.h": "int h1;\nint h2;"})
        assert out == "int h1;\nint h2;\nint y;\n"


class TestCommentsAreInert:
    def test_error_inside_block_comment_is_text(self):
        source = "/*\n#error old note\n*/\nint x;"
        assert preprocess(source) == source + "\n"

    def test_define_inside_block_comment_defines_nothing(self):
        out = preprocess("/*\n#define N 3\n*/\nint N = 5;")
        assert "int N = 5;" in out

    def test_conditionals_inside_block_comment_are_ignored(self):
        out = preprocess("/* notes:\n#if 0\n#endif\n#else\n*/\nint x;")
        assert "int x;" in out

    def test_comment_opened_on_a_directive_line_hides_the_next(self):
        out = preprocess("#define A 1 /* one\n#define A 2\n*/\nint a = A;")
        assert "int a = 1" in out

    def test_comment_closed_on_the_line_ends_it(self):
        out = preprocess("/* a */ /* b\n*/ int y;\n#define N 4\nint n = N;")
        assert "int n = 4;" in out

    def test_opener_inside_a_string_is_not_a_comment(self):
        out = preprocess('char *s = "/*";\n#define N 4\nint n = N;')
        assert "int n = 4;" in out

    def test_opener_inside_a_char_literal_run_is_not_a_comment(self):
        out = preprocess("int q = '\"'; /* c */\n#define N 4\nint n = N;")
        assert "int n = 4;" in out

    def test_opener_inside_a_line_comment_is_not_a_comment(self):
        out = preprocess("int x; // see /* here\n#define N 4\nint n = N;")
        assert "int n = 4;" in out

    def test_line_comment_marker_inside_block_comment_is_text(self):
        out = preprocess("/* // */ int x;\n#define N 4\nint n = N;")
        assert "int n = 4;" in out


class TestNoMacrosFastPath:
    def test_expansion_is_skipped_while_nothing_is_defined(self,
                                                            monkeypatch):
        calls = []
        real = Preprocessor._expand

        def counted(self, text, hide=frozenset()):
            calls.append(text)
            return real(self, text, hide)

        monkeypatch.setattr(Preprocessor, "_expand", counted)
        preprocess("int a;\nint b;\n#define N 1\nint c = N;\n#undef N\n"
                   "int d;")
        assert calls == ["int c = N;", "1"]
