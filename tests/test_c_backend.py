"""Tests for the C stub generator, including gcc cross-validation.

The strongest test here compiles the generated busmouse header with a
real C compiler, runs it against a C transliteration of the simulated
mouse, and asserts that the I/O trace is byte-for-byte identical to
what the Python runtime produces for the same driver sequence — the
two backends implement one semantics.
"""

import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

from repro.bus import Bus
from repro.devices.busmouse import BusmouseModel
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec

HAVE_GCC = shutil.which("gcc") is not None


class TestHeaderShape:
    def test_include_guard(self):
        header = shipped_spec("busmouse").emit_c(prefix="bm")
        assert "#ifndef DEVIL_BM_DIL_H" in header
        assert header.rstrip().endswith("#endif /* DEVIL_BM_DIL_H */")

    def test_state_struct_contains_caches(self):
        header = shipped_spec("busmouse").emit_c(prefix="bm")
        assert "typedef struct bm_state {" in header
        assert "unsigned cache_y_high;" in header
        assert "unsigned port_base;" in header

    def test_figure_3c_mask_constants(self):
        """The generated get_dy must AND with 0xf and shift by 4."""
        header = shipped_spec("busmouse").emit_c(prefix="bm")
        assert "bm__get_dy" in header
        dy_body = header.split("bm__get_dy")[2]
        assert "0xf" in dy_body

    def test_private_variables_not_exported_in_noref(self):
        header = shipped_spec("busmouse").emit_c(prefix="bm")
        noref = header.split("#ifdef DEVIL_NO_REF")[1]
        assert "bm_set_index" not in noref
        assert "bm_get_dx()" in noref

    def test_debug_checks_guarded(self):
        header = shipped_spec("busmouse").emit_c(prefix="bm")
        assert "#ifdef DEVIL_DEBUG" in header
        assert "DEVIL_CHECK" in header

    def test_forced_debug_mode(self):
        header = shipped_spec("busmouse").emit_c(prefix="bm", debug=True)
        assert "#define DEVIL_DEBUG 1" in header

    def test_enum_constants(self):
        header = shipped_spec("busmouse").emit_c(prefix="bm")
        assert "BM_CONFIGURATION = 1" in header
        assert "BM_DEFAULT_MODE = 0" in header

    def test_block_stubs_use_rep_primitives(self):
        header = shipped_spec("ide").emit_c(prefix="ide")
        assert "devil_in_rep" in header
        assert "ide__read_ide_data_block" in header

    def test_conditional_serialization_generates_if(self):
        header = shipped_spec("pic8259").emit_c(prefix="pic")
        setter = header.split("pic__set_init")[2]
        assert "if (raw_sngl == 0x0u)" in setter
        assert "if (raw_ic4 == 0x1u)" in setter

    def test_trigger_neutral_constants_folded(self):
        import re
        header = shipped_spec("ne2000").emit_c(prefix="ne")
        # Writing `page` composes NODMA (100b at bits 5..3 => 0x20).
        match = re.search(
            r"static inline void ne__set_page\(ne_state_t \*d, "
            r"unsigned value\)\n\{.*?\n\}", header, re.S)
        assert match is not None
        assert "0x20" in match.group(0)


@pytest.mark.skipif(not HAVE_GCC, reason="gcc not available")
class TestGccCompilation:
    @pytest.mark.parametrize("debug", [True, False],
                             ids=["debug", "release"])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_header_compiles_with_warnings_as_errors(self, name, debug):
        header = shipped_spec(name).emit_c(prefix=name[:3])
        define = "#define DEVIL_DEBUG" if debug else ""
        with tempfile.TemporaryDirectory() as workdir:
            work = Path(workdir)
            (work / f"{name}.dil.h").write_text(header)
            (work / "main.c").write_text(f'''
unsigned devil_in(unsigned port, int width);
void devil_out(unsigned value, unsigned port, int width);
void devil_in_rep(unsigned port, int width, unsigned long count,
                  unsigned *buffer);
void devil_out_rep(unsigned port, int width, unsigned long count,
                   const unsigned *buffer);
#define DEVIL_IO_DECLARED
{define}
#include "{name}.dil.h"
int main(void) {{ {name[:3]}_state_t s; (void)s; return 0; }}
''')
            result = subprocess.run(
                ["gcc", "-Wall", "-Wextra", "-Werror", "-std=c99",
                 "-c", "main.c", "-o", "main.o"],
                cwd=work, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr


class TestHeaderMemoization:
    def test_same_device_same_flags_is_cached(self):
        model = shipped_spec("busmouse").model
        from repro.devil.codegen.c_backend import generate_c_header
        first = generate_c_header(model, debug=True)
        second = generate_c_header(model, debug=True)
        assert first is second              # memo hit, not a re-emit

    def test_flags_key_the_memo(self):
        model = shipped_spec("dma8237").model
        from repro.devil.codegen.c_backend import generate_c_header
        debug = generate_c_header(model, debug=True)
        release = generate_c_header(model, debug=False)
        assert debug is not release
        assert "#define DEVIL_DEBUG 1" in debug
        assert "#define DEVIL_DEBUG 1" not in release
        assert generate_c_header(model, debug=False) is release

    def test_prefix_keys_the_memo(self):
        model = shipped_spec("pic8259").model
        from repro.devil.codegen.c_backend import generate_c_header
        default = generate_c_header(model)
        prefixed = generate_c_header(model, prefix="pic")
        assert default is not prefixed
        assert generate_c_header(model, prefix="pic") is prefixed


class TestPyiStubs:
    """The checked-in .pyi stubs must match what the backend emits."""

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_shipped_stub_is_fresh(self, name):
        from repro.devil.codegen.pyi_backend import generate_pyi
        stub_path = Path(__file__).parent.parent / "src" / "repro" / \
            "specs" / "stubs" / f"{name}.pyi"
        assert stub_path.exists(), \
            f"missing {stub_path}; regenerate with devilc compile " \
            f"--backend pyi"
        expected = generate_pyi(shipped_spec(name).model)
        assert stub_path.read_text() == expected, \
            f"{stub_path.name} is stale; regenerate with devilc " \
            f"compile --backend pyi"

    def test_stub_surface_matches_catalog(self):
        from repro.devil.codegen.pyi_backend import generate_pyi
        from repro.devil.stubs import stub_table
        model = shipped_spec("busmouse").model
        text = generate_pyi(model)
        for row in stub_table(model).rows:
            assert f"def {row.name}(" in text

    def test_enum_setters_take_literals(self):
        from repro.devil.codegen.pyi_backend import generate_pyi
        text = generate_pyi(shipped_spec("busmouse").model)
        assert 'Literal["CONFIGURATION", "DEFAULT_MODE"]' in text


_C_HARNESS = r"""
#include <stdio.h>

static int mouse_index = 0;
static int dx = @DX@, dy = @DY@, buttons = @BUTTONS@;

unsigned devil_in(unsigned port, int width) {
    unsigned v = 0;
    (void)width;
    if (port == 0x23c) {
        unsigned udx = (unsigned)dx & 0xFF, udy = (unsigned)dy & 0xFF;
        switch (mouse_index) {
        case 0: v = udx & 0xF; break;
        case 1: v = (udx >> 4) & 0xF; break;
        case 2: v = udy & 0xF; break;
        case 3: v = ((unsigned)buttons << 5) | ((udy >> 4) & 0xF); break;
        }
    } else if (port == 0x23d) v = 0xA5;
    printf("r %x %x\n", port, v);
    return v;
}
void devil_out(unsigned value, unsigned port, int width) {
    (void)width;
    if (port == 0x23e && (value & 0x80)) mouse_index = (value >> 5) & 3;
    printf("w %x %x\n", port, value);
}
void devil_in_rep(unsigned port, int width, unsigned long n, unsigned *b)
{ (void)port; (void)width; (void)n; (void)b; }
void devil_out_rep(unsigned port, int width, unsigned long n,
                   const unsigned *b)
{ (void)port; (void)width; (void)n; (void)b; }
#define DEVIL_IO_DECLARED
#define DEVIL_DEBUG
#define DEVIL_NO_REF
#include "busmouse.dil.h"

int main(void) {
    bus_init(0x23c);
    bus_set_config(BUS_CONFIGURATION);
    bus_set_signature(0xA5);
    printf("sig %x\n", bus_get_signature());
    bus_get_mouse_state();
    printf("dx %d\n", bus_get_dx());
    printf("dy %d\n", bus_get_dy());
    printf("buttons %u\n", bus_get_buttons());
    return 0;
}
"""


@pytest.mark.skipif(not HAVE_GCC, reason="gcc not available")
class TestCrossValidation:
    @pytest.mark.parametrize("dx,dy,buttons", [
        (5, -3, 4), (0, 0, 0), (-128, 127, 7), (15, 16, 1),
    ])
    def test_c_and_python_traces_identical(self, dx, dy, buttons):
        header = shipped_spec("busmouse").emit_c(prefix="bus")
        with tempfile.TemporaryDirectory() as workdir:
            work = Path(workdir)
            (work / "busmouse.dil.h").write_text(header)
            harness = (_C_HARNESS
                       .replace("@DX@", str(dx))
                       .replace("@DY@", str(dy))
                       .replace("@BUTTONS@", str(buttons)))
            (work / "main.c").write_text(harness)
            subprocess.run(["gcc", "-Wall", "-Werror", "-std=c99",
                            "main.c", "-o", "harness"],
                           cwd=work, check=True, capture_output=True)
            output = subprocess.run(["./harness"], cwd=work, check=True,
                                    capture_output=True,
                                    text=True).stdout.splitlines()

        bus = Bus(tracing=True)
        mouse = BusmouseModel()
        mouse.move(dx, dy)
        mouse.set_buttons(buttons)
        mouse.signature = 0
        bus.map_device(0x23C, 4, mouse, "busmouse")
        device = shipped_spec("busmouse").bind(bus, {"base": 0x23C})
        device.set_config("CONFIGURATION")
        device.set_signature(0xA5)
        signature = device.get_signature()
        state = device.get_mouse_state()

        python_trace = [f"{e.op} {e.port:x} {e.value:x}"
                        for e in bus.trace]
        c_trace = [line for line in output
                   if line.startswith(("r ", "w "))]
        assert c_trace == python_trace
        results = {line.split()[0]: line.split()[1] for line in output
                   if not line.startswith(("r ", "w "))}
        assert int(results["sig"], 16) == signature
        assert int(results["dx"]) == state["dx"]
        assert int(results["dy"]) == state["dy"]
        assert int(results["buttons"]) == state["buttons"]
