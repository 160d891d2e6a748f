"""Tests for the Markdown datasheet generator."""

import pytest

from repro.devil.cli import main
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec


class TestDatasheets:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_every_spec_renders(self, name):
        doc = shipped_spec(name).emit_doc()
        assert doc.startswith("# Device ")
        assert "## Register map" in doc
        assert "## Functional interface" in doc

    def test_busmouse_bit_layout(self):
        doc = shipped_spec("busmouse").emit_doc()
        # The cr row must show the forced 1001000 bits and config.
        cr_row = [line for line in doc.splitlines()
                  if line.startswith("| `cr` |")][0]
        assert "config" in cr_row
        assert cr_row.count("1") >= 2  # forced bits visible

    def test_pre_actions_listed(self):
        doc = shipped_spec("busmouse").emit_doc()
        assert "`x_high` pre-action: `index = 1`" in doc

    def test_private_variables_segregated(self):
        doc = shipped_spec("busmouse").emit_doc()
        assert "Private (hidden from the interface): `index`." in doc
        interface = doc.split("## Functional interface")[1]
        table_rows = [line for line in interface.splitlines()
                      if line.startswith("| `")]
        assert not any("| `index` |" in row for row in table_rows)

    def test_enum_values_listed(self):
        doc = shipped_spec("busmouse").emit_doc()
        assert "`CONFIGURATION` => '1'" in doc

    def test_modes_section(self):
        doc = shipped_spec("pic8259").emit_doc()
        assert "## Operating modes" in doc
        assert "reset state `initialization`" in doc
        icw2_row = [line for line in doc.splitlines()
                    if line.startswith("| `icw2` |")][0]
        assert "initialization" in icw2_row

    def test_conditional_serialization_documented(self):
        doc = shipped_spec("pic8259").emit_doc()
        assert "`icw3` (if `sngl` == 0x0)" in doc

    def test_trigger_neutral_documented(self):
        doc = shipped_spec("ne2000").emit_doc()
        st_row = [line for line in doc.splitlines()
                  if line.startswith("| `st` |")][0]
        assert "trigger (neutral 0x0)" in st_row

    def test_block_stubs_documented(self):
        doc = shipped_spec("ide").emit_doc()
        assert "`read_ide_data_block`, `write_ide_data_block`" in doc

    def test_split_read_write_ports_rendered(self):
        doc = shipped_spec("ide").emit_doc()
        error_row = [line for line in doc.splitlines()
                     if line.startswith("| `error_reg` |")][0]
        assert "| R |" in error_row


class TestCli:
    def test_doc_subcommand(self, tmp_path, capsys):
        assert main(["doc", "src/repro/specs/pic8259.devil"]) == 0
        output = capsys.readouterr().out
        assert "# Device `pic8259`" in output
        assert "memory cell" in output  # the public device_mode cell

    def test_doc_to_file(self, tmp_path):
        out = tmp_path / "sheet.md"
        assert main(["doc", "src/repro/specs/busmouse.devil",
                     "-o", str(out)]) == 0
        assert "## Register map" in out.read_text()
