"""Tests for the devilc command-line front end."""

from pathlib import Path

import pytest

from repro.devil.cli import main
from repro.devil.compiler import compile_spec
from repro.devil.native import generate_shim


@pytest.fixture
def good_spec(tmp_path):
    path = tmp_path / "chip.devil"
    path.write_text("""
device chip (base : bit[8] port @ {0}) {
    register r = base @ 0 : bit[8];
    variable v = r : int(8);
}
""")
    return str(path)


@pytest.fixture
def bad_spec(tmp_path):
    path = tmp_path / "broken.devil"
    path.write_text("""
device chip (base : bit[8] port @ {0..1}) {
    register r = base @ 0 : bit[8];
    variable v = r : int(8);
}
""")
    return str(path)


class TestCheck:
    def test_accepts_valid_spec(self, good_spec, capsys):
        assert main(["check", good_spec]) == 0
        assert "is consistent" in capsys.readouterr().out

    def test_rejects_invalid_spec(self, bad_spec, capsys):
        assert main(["check", bad_spec]) == 1
        assert "never used" in capsys.readouterr().err

    def test_reports_every_error(self, tmp_path, capsys):
        from tests.test_checker import THREE_ERRORS

        path = tmp_path / "three.devil"
        path.write_text(THREE_ERRORS)
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "3 error(s) in specification" in err
        assert err.count(": error: ") == 3

    def test_non_ascii_digit_is_a_lex_error(self, tmp_path, capsys):
        path = tmp_path / "superscript.devil"
        path.write_text("device chip (base : bit[8] port @ {\u00b2}) {}\n")
        assert main(["check", str(path)]) == 1
        assert "1:36: unexpected character '\u00b2'" in \
            capsys.readouterr().err

    def test_missing_file(self, capsys):
        with pytest.raises(OSError):
            main(["check", "/nonexistent/never.devil"])


class TestEmission:
    def test_c_to_stdout(self, good_spec, capsys):
        assert main(["c", good_spec, "--prefix", "ch"]) == 0
        output = capsys.readouterr().out
        assert "ch_state_t" in output

    def test_c_to_file(self, good_spec, tmp_path):
        out = tmp_path / "chip.dil.h"
        assert main(["c", good_spec, "-o", str(out)]) == 0
        assert "Generated by devilc" in out.read_text()

    def test_c_debug_flag(self, good_spec, capsys):
        assert main(["c", good_spec, "--debug"]) == 0
        assert "#define DEVIL_DEBUG 1" in capsys.readouterr().out

    def test_python_emission(self, good_spec, capsys):
        assert main(["python", good_spec]) == 0
        output = capsys.readouterr().out
        assert "class ChipStubs:" in output
        compile(output, "generated", "exec")


class TestCompile:
    def test_default_backend_is_c(self, good_spec, capsys):
        assert main(["compile", good_spec, "--prefix", "ch"]) == 0
        assert "ch_state_t" in capsys.readouterr().out

    def test_c_header_to_disk_with_debug(self, good_spec, tmp_path):
        out = tmp_path / "chip.dil.h"
        assert main(["compile", good_spec, "--backend", "c",
                     "--debug", "-o", str(out)]) == 0
        text = out.read_text()
        assert "Generated by devilc" in text
        assert "#define DEVIL_DEBUG 1" in text

    def test_shim_rides_along_and_includes_header(self, good_spec,
                                                  tmp_path):
        header = tmp_path / "chip.dil.h"
        shim = tmp_path / "chip_shim.c"
        assert main(["compile", good_spec, "--backend", "c",
                     "-o", str(header), "--shim", str(shim)]) == 0
        assert header.exists()
        model = compile_spec(Path(good_spec).read_text()).model
        assert shim.read_text() == generate_shim(model,
                                                 header_name="chip.dil.h")

    def test_shim_requires_c_backend(self, good_spec, tmp_path, capsys):
        shim = tmp_path / "chip_shim.c"
        assert main(["compile", good_spec, "--backend", "python",
                     "--shim", str(shim)]) == 1
        assert "--shim only applies" in capsys.readouterr().err

    def test_pyi_backend(self, good_spec, capsys):
        assert main(["compile", good_spec, "--backend", "pyi"]) == 0
        output = capsys.readouterr().out
        assert "class ChipStubs(Protocol):" in output
        assert "def get_v(self) -> int:" in output
        compile(output, "stubs.pyi", "exec")


class TestDump:
    def test_dump_shows_layers(self, good_spec, capsys):
        assert main(["dump", good_spec]) == 0
        output = capsys.readouterr().out
        assert "device chip" in output
        assert "port base" in output
        assert "register r" in output
        assert "variable v" in output

    def test_dump_shipped_spec(self, capsys):
        assert main(["dump", "src/repro/specs/ne2000.devil"]) == 0
        output = capsys.readouterr().out
        assert "trigger" in output
        assert "structure interrupt_status" in output


# ---------------------------------------------------------------------------
# The live-plane commands: devil top / devil fleet --health-log
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
class TestTop:
    ARGS = ["--devices", "ide:1", "ne2000:1", "--workers", "2",
            "--requests", "2", "--latency-us", "0"]

    def test_once_renders_single_frame(self, capsys):
        assert main(["top", "--once"] + self.ARGS) == 0
        output = capsys.readouterr().out
        assert output.count("devil top —") == 1
        assert "WORKER" in output and "HEALTH" in output
        assert "fleet-w0" in output and "healthy" in output
        assert "total:" in output

    def test_once_process_backend(self, capsys):
        assert main(["top", "--once", "--backend", "process"]
                    + self.ARGS) == 0
        output = capsys.readouterr().out
        assert "pfleet-w0" in output and "healthy" in output

    def test_live_mode_renders_frames(self, capsys):
        assert main(["top", "--duration", "0.4", "--interval", "0.1"]
                    + self.ARGS) == 0
        output = capsys.readouterr().out
        assert output.count("devil top —") >= 2  # non-tty appends

    def test_rejects_unknown_spec(self, capsys):
        assert main(["top", "--once", "--devices", "flux:1"]) == 1
        assert "unknown shipped spec" in capsys.readouterr().err


@pytest.mark.concurrency
class TestFleetTelemetry:
    def test_health_log_writes_validating_records(self, tmp_path,
                                                  capsys):
        import json

        from repro.obs.validate import load_schema, validate

        log = tmp_path / "health.jsonl"
        assert main(["fleet", "--workers", "2", "--requests", "2",
                     "--health-log", str(log)]) == 0
        output = capsys.readouterr().out
        assert "health:" in output and "healthy" in output
        assert str(log) in output
        schema = load_schema()
        records = [json.loads(line)
                   for line in log.read_text().splitlines()]
        assert {record["record"] for record in records} \
            >= {"heartbeat", "health"}
        for record in records:
            validate(record, schema)

    def test_telemetry_flag_prints_health_summary(self, capsys):
        assert main(["fleet", "--workers", "2", "--requests", "2",
                     "--telemetry"]) == 0
        output = capsys.readouterr().out
        assert "health: fleet-w0=healthy" in output


@pytest.mark.concurrency
class TestFleetAuto:
    ARGS = ["fleet", "--backend", "auto", "--workers", "2",
            "--requests", "2"]

    def test_default_mix_picks_threads(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "auto: picked the thread backend" in output
        assert "2 thread workers" in output

    def test_no_latency_on_four_cpus_picks_processes(self, monkeypatch,
                                                     capsys):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert main(self.ARGS + ["--latency-us", "0"]) == 0
        output = capsys.readouterr().out
        assert "auto: picked the process backend" in output
        assert "2 process workers" in output

    def test_least_loaded_runs_on_threads(self, monkeypatch, capsys):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert main(self.ARGS + ["--latency-us", "0",
                                 "--policy", "least-loaded"]) == 0
        output = capsys.readouterr().out
        assert "auto: picked the thread backend" in output
        assert "least-loaded" in output
