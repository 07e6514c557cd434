"""Tests for the titancc command-line driver."""

import os

import pytest

from repro.cli import main
from repro.workloads import blas


@pytest.fixture
def daxpy_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(blas.caller_program(n=64) + """
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) { b[i] = i; c[i] = 1.0f; }
    bench();
    printf("a[3]=%g\\n", a[3]);
    return 0;
}
""")
    return str(path)


class TestCLI:
    def test_plain_compile_prints_il(self, daxpy_file, capsys):
        assert main([daxpy_file]) == 0
        out = capsys.readouterr().out
        assert "do parallel" in out

    def test_dump_stages(self, daxpy_file, capsys):
        assert main([daxpy_file, "--dump-stages"]) == 0
        out = capsys.readouterr().out
        assert "stage: front-end" in out
        assert "stage: vectorize" in out

    def test_run_simulates(self, daxpy_file, capsys):
        assert main([daxpy_file, "--run", "main"]) == 0
        out = capsys.readouterr().out
        assert "a[3]=5.5" in out  # 3 + 2.5*1
        assert "MFLOPS" in out

    def test_no_vectorize_flag(self, daxpy_file, capsys):
        assert main([daxpy_file, "--no-vectorize"]) == 0
        out = capsys.readouterr().out
        assert "do parallel" not in out or "vector" not in out

    def test_processors_flag(self, daxpy_file, capsys):
        assert main([daxpy_file, "--processors", "4", "--run",
                     "main"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_stats_flag(self, daxpy_file, capsys):
        assert main([daxpy_file, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "inline:" in err

    def test_make_and_use_db(self, tmp_path, capsys):
        lib = tmp_path / "lib.c"
        lib.write_text(blas.MATH_LIBRARY_C)
        db_path = str(tmp_path / "lib.ildb")
        assert main([str(lib), "--make-db", db_path]) == 0
        assert os.path.exists(db_path)
        out = capsys.readouterr().out
        assert "daxpy" in out

        client = tmp_path / "client.c"
        client.write_text(blas.library_client(n=32))
        assert main([str(client), "--use-db", db_path]) == 0
        out = capsys.readouterr().out
        assert "/* vector */" in out  # inlined + vectorized

    def test_use_db_builds_catalog_once_per_content(self, tmp_path,
                                                    capsys):
        # Regression: --use-db used to rebuild its procedure catalog
        # on every invocation.  It now routes through the process-
        # global content-addressed catalog cache, so driving main() in
        # a loop unpickles each distinct database exactly once.
        from repro.service.cache import GLOBAL_CATALOGS
        lib = tmp_path / "lib.c"
        lib.write_text(blas.MATH_LIBRARY_C)
        db_path = str(tmp_path / "lib.ildb")
        assert main([str(lib), "--make-db", db_path]) == 0
        client = tmp_path / "client.c"
        client.write_text(blas.library_client(n=32))
        capsys.readouterr()

        GLOBAL_CATALOGS.clear()
        try:
            assert main([str(client), "--use-db", db_path]) == 0
            first = capsys.readouterr().out
            assert GLOBAL_CATALOGS.builds == 1
            assert main([str(client), "--use-db", db_path]) == 0
            second = capsys.readouterr().out
            assert GLOBAL_CATALOGS.builds == 1  # cached, not rebuilt
            assert GLOBAL_CATALOGS.lru.hits == 1
            assert first == second
            assert "/* vector */" in first
            # A byte-identical copy at another path is the same key.
            copy_path = str(tmp_path / "copy.ildb")
            with open(db_path, "rb") as src_handle:
                blob = src_handle.read()
            with open(copy_path, "wb") as dst_handle:
                dst_handle.write(blob)
            assert main([str(client), "--use-db", copy_path]) == 0
            assert GLOBAL_CATALOGS.builds == 1
        finally:
            GLOBAL_CATALOGS.clear()

    def test_fortran_pointers_flag(self, tmp_path, capsys):
        src = tmp_path / "ptr.c"
        src.write_text("""
void f(float *p, float *q, int n)
{
    int i;
    for (i = 0; i < n; i++)
        p[i] = q[i];
}
""")
        assert main([str(src), "--no-inline"]) == 0
        plain = capsys.readouterr().out
        assert "vector" not in plain
        assert main([str(src), "--no-inline", "--fortran-pointers"]) == 0
        fortran = capsys.readouterr().out
        assert "vector" in fortran


    def test_unreadable_source_is_a_usage_error(self, tmp_path, capsys):
        # Not a FileNotFoundError traceback: one located line, the
        # status argparse uses for a bad command line.
        for path, why in ((tmp_path / "no" / "such.c", "No such file"),
                          (tmp_path, "Is a directory")):
            with pytest.raises(SystemExit) as exc:
                main([str(path), "--run", "main"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"titancc: error: cannot read {path}: {why}" in err
            assert "Traceback" not in err


class TestEngineFlags:
    def test_bytecode_engine_refused(self, daxpy_file, capsys):
        # The "bytecode" engine value is gone: generated code is what
        # the default engine runs when uninstrumented.
        with pytest.raises(SystemExit) as exc:
            main([daxpy_file, "--engine", "bytecode", "--run", "main"])
        assert exc.value.code == 2  # argparse's usage error
        assert "invalid choice: 'bytecode'" in capsys.readouterr().err

    def test_dump_code_without_run(self, daxpy_file, capsys):
        # --dump-code needs no --run: it disassembles the generated
        # code straight off the compiled program.
        assert main([daxpy_file, "--dump-code", "main"]) == 0
        err = capsys.readouterr().err
        assert "# generated source for main" in err
        assert "def _bytecode_fn" in err
        assert "# CPython bytecode for main" in err

    def test_dump_code_fallback_reports_reason(self, tmp_path, capsys):
        src = tmp_path / "vol.c"
        src.write_text("volatile int port;\n"
                       "int main(void) { port = 1; return 0; }\n")
        assert main([str(src), "--dump-code", "main"]) == 0
        err = capsys.readouterr().err
        assert "tree-oracle fallback" in err

    def test_dump_code_unknown_function(self, daxpy_file, capsys):
        assert main([daxpy_file, "--dump-code", "nope"]) == 1
        err = capsys.readouterr().err
        assert "no function named 'nope'" in err
