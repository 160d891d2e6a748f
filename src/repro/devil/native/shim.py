"""C runtime shim emission for the native execution strategy.

The generated C header (:mod:`repro.devil.codegen.c_backend`) contains
the paper's Figure-3 stubs as ``static inline`` functions.  This module
emits the translation unit that turns one spec's header into a loadable
shared library:

* the ``devil_nat_bus_t`` ABI struct mirrored by ctypes on the Python
  side — callback pointers, mode flags, a port table with *per-entry*
  accounting counters (merged into ``bus.accounting`` when a direct
  batch ends), a per-device pthread mutex and a bounded trace ring;
* ``devil_in``/``devil_out``/``devil_in_rep``/``devil_out_rep``
  implementations that either call back into the Python :class:`Bus`
  (exact-parity path) or dispatch through the C port table straight to
  the mapped device models (direct path, used for batched loops on an
  untraced bus);
* with ``with_models=True``, C ports of the two benchmark-dominant
  simulated devices (:mod:`repro.devices.ide` taskfile/data/status
  ports and :mod:`repro.devices.permedia2` FIFO/rect registers plus
  the framebuffer aperture) so direct-mode batches run with **zero**
  Python crossings per operation; infrequent paths (IDE command
  execution, device-control writes) fall back to the Python model
  through a state-syncing proxy;
* ``DEVIL_CHECK`` routed through ``setjmp``/``longjmp`` so a failed
  §3.2 check unwinds the C frames and surfaces as a Python exception
  instead of ``assert()``-aborting the interpreter; C device models
  report :class:`BusError` conditions the same way (status
  ``DEVIL_NAT_DEVERR``, message formatted into ``fail_buf``);
* ``DEVIL_OBS_ACTION`` routed to the span collector callback;
* one ``switch``-based dispatch function plus batched entry points
  (``<p>_nat_call``, ``<p>_nat_repeat``, ``<p>_nat_read_block``,
  ``<p>_nat_write_block``) so inner loops cross the Python↔C boundary
  once per batch, not once per port access.  Every entry point takes
  the per-device mutex (``<p>_nat_lock_new``) for its whole frame, so
  concurrent C batches against one device state serialize in C even
  when the GIL is released around the foreign call.

The C ``switch`` cases and the Python loader take their dispatch ids
from one helper, :func:`dispatch_rows`, which numbers the rows of the
model's stub table (:func:`repro.devil.stubs.stub_table`).
"""

from __future__ import annotations

from ..codegen.c_backend import c_value_cast
from ..stubs import BLOCK_KINDS, Stub, stub_table

#: Entry status codes shared with the Python loader.
STATUS_OK = 0
STATUS_PYERR = 1    # a Python callback raised; the stored exception re-raises
STATUS_CHECK = 2    # a DEVIL_CHECK failed; fail_msg carries the message
STATUS_NODEV = 3    # direct mode: no device mapped at fail_port
STATUS_BADID = 4    # unknown stub id (loader/table version skew)
STATUS_DEVERR = 5   # a C device model raised; fail_msg is the BusError text


def dispatch_rows(model) -> tuple[list[Stub], list[Stub]]:
    """The stub-table rows the library dispatches, ``(singles,
    blocks)``; a row's position in its list is its ``case`` id.

    Memory rows stay on the Python side: their interpreter semantics
    (no set-actions on write, abstract values returned verbatim) live
    in Python against the shared state mirror.  Member getters *are*
    listed: single calls use the snapshot path in Python, but batched
    ``repeat()`` loops dispatch them in C.
    """
    singles: list[Stub] = []
    blocks: list[Stub] = []
    for row in stub_table(model).rows:
        if row.kind in BLOCK_KINDS:
            blocks.append(row)
        elif row.kind in ("get_struct", "set_struct") or \
                not model.variables[row.target].memory:
            singles.append(row)
    return singles, blocks


def generate_shim(model, prefix: str | None = None,
                  header_name: str | None = None,
                  with_models: bool = False) -> str:
    """Emit the runtime shim C source for ``model``.

    The same source serves debug and release builds: the header decides
    (via its embedded ``DEVIL_DEBUG`` define when emitted with
    ``debug=True``) whether the §3.2 checks are compiled in.
    ``with_models`` additionally compiles the C-resident device models
    (IDE disk/control, Permedia2 regs/aperture) into the library; the
    build cache keys on the source text, so both variants coexist.
    """
    p = prefix or model.name
    header = header_name or f"{p}.dil.h"
    singles, blocks = dispatch_rows(model)
    w: list[str] = []

    def line(text: str = "") -> None:
        w.append(text)

    line(f"/* Generated native runtime shim for specification "
         f"'{model.name}'. Do not edit. */")
    line("/* -std=c99 hides PTHREAD_MUTEX_RECURSIVE without this. */")
    line("#define _XOPEN_SOURCE 700")
    line("#include <pthread.h>")
    line("#include <setjmp.h>")
    line("#include <stdlib.h>")
    if with_models:
        line("#include <stdarg.h>")
        line("#include <stdio.h>")
        line("#include <string.h>")
    line()
    line("typedef unsigned (*devil_nat_in_fn)(void *ctx, unsigned port, "
         "int width);")
    line("typedef void (*devil_nat_out_fn)(void *ctx, unsigned value, "
         "unsigned port, int width);")
    line("typedef void (*devil_nat_in_rep_fn)(void *ctx, unsigned port, "
         "int width, unsigned long count, unsigned *buffer);")
    line("typedef void (*devil_nat_out_rep_fn)(void *ctx, unsigned port, "
         "int width, unsigned long count, const unsigned *buffer);")
    line("typedef unsigned (*devil_nat_raw_in_fn)(void *ctx, "
         "unsigned index, unsigned offset, int width);")
    line("typedef void (*devil_nat_raw_out_fn)(void *ctx, "
         "unsigned index, unsigned offset, unsigned value, int width);")
    line("typedef void (*devil_nat_obs_fn)(void *ctx, const char *kind, "
         "const char *target);")
    line()
    line("/* One bus mapping.  `model`/`mstate` select an optional")
    line(" * C-resident device model; the counters account direct-mode")
    line(" * accesses until the Python side merges them into the bus")
    line(" * accounting at the end of the batch. */")
    line("typedef struct devil_nat_port {")
    line("    unsigned base;")
    line("    unsigned size;")
    line("    unsigned index;   /* slot in the Python-side device list */")
    line("    int model;        /* 0 = python callback; else a model kind */")
    line("    void *mstate;")
    line("    unsigned long long reads;")
    line("    unsigned long long writes;")
    line("    unsigned long long w8;")
    line("    unsigned long long w16;")
    line("    unsigned long long w32;")
    line("} devil_nat_port_t;")
    line()
    line("typedef struct devil_nat_trace {")
    line("    unsigned op;      /* 0 = read, 1 = write */")
    line("    unsigned port;")
    line("    unsigned value;")
    line("    unsigned width;")
    line("} devil_nat_trace_t;")
    line()
    line("/* Mirrored field-for-field by ctypes on the Python side; the")
    line(" * loader cross-checks sizeof() at dlopen time. */")
    line("typedef struct devil_nat_bus {")
    line("    devil_nat_in_fn py_in;        /* exact-parity path: the "
         "Python Bus */")
    line("    devil_nat_out_fn py_out;")
    line("    devil_nat_in_rep_fn py_in_rep;")
    line("    devil_nat_out_rep_fn py_out_rep;")
    line("    devil_nat_raw_in_fn raw_in;   /* direct path: mapped "
         "device models */")
    line("    devil_nat_raw_out_fn raw_out;")
    line("    devil_nat_obs_fn obs;")
    line("    void *ctx;")
    line("    int direct;")
    line("    int action_hook;")
    line("    int aborted;")
    line("    devil_nat_port_t *ports;")
    line("    unsigned n_ports;")
    line("    devil_nat_trace_t *ring;      /* bounded flight recorder */")
    line("    unsigned ring_cap;")
    line("    unsigned long long ring_written;")
    line("    const char *fail_msg;")
    line("    unsigned fail_port;")
    line("    void *dev_lock;   /* per-device recursive pthread mutex */")
    line("    char fail_buf[256];")
    line("} devil_nat_bus_t;")
    line()
    line("static __thread devil_nat_bus_t *devil_nat_cur;")
    line("static __thread jmp_buf *devil_nat_env;")
    line()
    line(f"#define DEVIL_NAT_PYERR {STATUS_PYERR}")
    line(f"#define DEVIL_NAT_CHECK {STATUS_CHECK}")
    line(f"#define DEVIL_NAT_NODEV {STATUS_NODEV}")
    line(f"#define DEVIL_NAT_BADID {STATUS_BADID}")
    line(f"#define DEVIL_NAT_DEVERR {STATUS_DEVERR}")
    line()
    line("static void devil_nat_fail(const char *msg)")
    line("{")
    line("    devil_nat_cur->fail_msg = msg;")
    line("    longjmp(*devil_nat_env, DEVIL_NAT_CHECK);")
    line("}")
    if with_models:
        line()
        line("/* BusError from a C device model: format the exact message")
        line(" * the Python model would raise, then unwind. */")
        line("static void devil_nat_fail_fmt(const char *fmt, ...)")
        line("{")
        line("    va_list ap;")
        line("    va_start(ap, fmt);")
        line("    vsnprintf(devil_nat_cur->fail_buf,")
        line("              sizeof devil_nat_cur->fail_buf, fmt, ap);")
        line("    va_end(ap);")
        line("    devil_nat_cur->fail_msg = devil_nat_cur->fail_buf;")
        line("    longjmp(*devil_nat_env, DEVIL_NAT_DEVERR);")
        line("}")
        from .models import model_c_source
        line()
        line(model_c_source().rstrip())
    line()
    line("#define DEVIL_CHECK(cond, msg) \\")
    line("    do { if (!(cond)) devil_nat_fail(msg); } while (0)")
    line("#define DEVIL_OBS_ACTION(kind, target) "
         "devil_nat_action(kind, target)")
    line("#define DEVIL_IO_DECLARED")
    line()
    line("static unsigned devil_in(unsigned port, int width);")
    line("static void devil_out(unsigned value, unsigned port, "
         "int width);")
    line("static void devil_in_rep(unsigned port, int width, "
         "unsigned long count, unsigned *buffer);")
    line("static void devil_out_rep(unsigned port, int width, "
         "unsigned long count, const unsigned *buffer);")
    line("static void devil_nat_action(const char *kind, "
         "const char *target);")
    line()
    line(f'#include "{header}"')
    line()
    line("static void devil_nat_action(const char *kind, "
         "const char *target)")
    line("{")
    line("    devil_nat_bus_t *bus = devil_nat_cur;")
    line("    if (!bus->action_hook)")
    line("        return;")
    line("    bus->obs(bus->ctx, kind, target);")
    line("    if (bus->aborted)")
    line("        longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
    line("}")
    line()
    line("static unsigned devil_nat_width_mask(int width)")
    line("{")
    line("    return width >= 32 ? 0xFFFFFFFFu : ((1u << width) - 1u);")
    line("}")
    line()
    line("static devil_nat_port_t *devil_nat_find("
         "devil_nat_bus_t *bus, unsigned port)")
    line("{")
    line("    unsigned i;")
    line("    for (i = 0; i < bus->n_ports; i++) {")
    line("        devil_nat_port_t *m = &bus->ports[i];")
    line("        if (port >= m->base && port < m->base + m->size)")
    line("            return m;")
    line("    }")
    line("    bus->fail_port = port;")
    line("    longjmp(*devil_nat_env, DEVIL_NAT_NODEV);")
    line("    return 0;")
    line("}")
    line()
    line("static void devil_nat_count(devil_nat_port_t *m, int width, "
         "int is_write)")
    line("{")
    line("    if (is_write)")
    line("        m->writes++;")
    line("    else")
    line("        m->reads++;")
    line("    if (width == 8)")
    line("        m->w8++;")
    line("    else if (width == 16)")
    line("        m->w16++;")
    line("    else")
    line("        m->w32++;")
    line("}")
    line()
    line("static void devil_nat_record(devil_nat_bus_t *bus, unsigned op, "
         "unsigned port, unsigned value, unsigned width)")
    line("{")
    line("    if (bus->ring_cap) {")
    line("        devil_nat_trace_t *slot =")
    line("            &bus->ring[bus->ring_written % bus->ring_cap];")
    line("        slot->op = op;")
    line("        slot->port = port;")
    line("        slot->value = value;")
    line("        slot->width = width;")
    line("    }")
    line("    bus->ring_written++;")
    line("}")
    line()
    line("static unsigned devil_in(unsigned port, int width)")
    line("{")
    line("    devil_nat_bus_t *bus = devil_nat_cur;")
    line("    unsigned value;")
    line("    if (bus->direct) {")
    line("        devil_nat_port_t *m = devil_nat_find(bus, port);")
    if with_models:
        line("        if (!m->model || !devil_nat_model_in(m, "
             "port - m->base, width, &value)) {")
        line("            value = bus->raw_in(bus->ctx, m->index, "
             "port - m->base, width);")
        line("            if (bus->aborted)")
        line("                longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
        line("        }")
    else:
        line("        value = bus->raw_in(bus->ctx, m->index, "
             "port - m->base, width);")
        line("        if (bus->aborted)")
        line("            longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
    line("        value &= devil_nat_width_mask(width);")
    line("        devil_nat_count(m, width, 0);")
    line("        devil_nat_record(bus, 0u, port, value, "
         "(unsigned)width);")
    line("        return value;")
    line("    }")
    line("    value = bus->py_in(bus->ctx, port, width);")
    line("    if (bus->aborted)")
    line("        longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
    line("    return value;")
    line("}")
    line()
    line("static void devil_out(unsigned value, unsigned port, int width)")
    line("{")
    line("    devil_nat_bus_t *bus = devil_nat_cur;")
    line("    if (bus->direct) {")
    line("        devil_nat_port_t *m = devil_nat_find(bus, port);")
    line("        value &= devil_nat_width_mask(width);")
    if with_models:
        line("        if (!m->model || !devil_nat_model_out(m, "
             "port - m->base, value, width)) {")
        line("            bus->raw_out(bus->ctx, m->index, "
             "port - m->base, value, width);")
        line("            if (bus->aborted)")
        line("                longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
        line("        }")
    else:
        line("        bus->raw_out(bus->ctx, m->index, port - m->base, "
             "value, width);")
        line("        if (bus->aborted)")
        line("            longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
    line("        devil_nat_count(m, width, 1);")
    line("        devil_nat_record(bus, 1u, port, value, "
         "(unsigned)width);")
    line("        return;")
    line("    }")
    line("    bus->py_out(bus->ctx, value, port, width);")
    line("    if (bus->aborted)")
    line("        longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
    line("}")
    line()
    line("static void devil_in_rep(unsigned port, int width, "
         "unsigned long count, unsigned *buffer)")
    line("{")
    line("    devil_nat_bus_t *bus = devil_nat_cur;")
    line("    bus->py_in_rep(bus->ctx, port, width, count, buffer);")
    line("    if (bus->aborted)")
    line("        longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
    line("}")
    line()
    line("static void devil_out_rep(unsigned port, int width, "
         "unsigned long count, const unsigned *buffer)")
    line("{")
    line("    devil_nat_bus_t *bus = devil_nat_cur;")
    line("    bus->py_out_rep(bus->ctx, port, width, count, buffer);")
    line("    if (bus->aborted)")
    line("        longjmp(*devil_nat_env, DEVIL_NAT_PYERR);")
    line("}")
    line()
    # -- generated dispatch switch -------------------------------------
    line(f"static int {p}_nat_dispatch({p}_state_t *d, unsigned stub_id, "
         "const unsigned *args, unsigned *out)")
    line("{")
    line("    (void)args;")
    line("    (void)out;")
    line("    switch (stub_id) {")
    for index, row in enumerate(singles):
        if row.kind == "get":
            line(f"    case {index}: "
                 f"*out = (unsigned){p}__{row.name}(d); return 0;")
        elif row.kind == "get_struct":
            line(f"    case {index}: {p}__{row.name}(d); return 0;")
        else:  # set, set_struct
            call_args = ", ".join(
                c_value_cast(p, model.variables[param], f"args[{j}]")
                for j, param in enumerate(row.params))
            line(f"    case {index}: "
                 f"{p}__{row.name}(d, {call_args}); return 0;")
    line("    default: return DEVIL_NAT_BADID;")
    line("    }")
    line("}")
    line()
    # -- exported entry points -----------------------------------------
    # The per-device mutex is held for the whole entry frame: the lock
    # is taken before setjmp, and a longjmp from any depth lands back
    # at the setjmp in this same frame, so DEVIL_NAT_LEAVE always
    # unlocks.  The mutex is recursive: a Python callback that
    # re-enters the same instance must not self-deadlock.
    line("#define DEVIL_NAT_ENTER() \\")
    line("    jmp_buf env; \\")
    line("    jmp_buf *prev_env = devil_nat_env; \\")
    line("    devil_nat_bus_t *prev_bus = devil_nat_cur; \\")
    line("    int status; \\")
    line("    if (bus->dev_lock) \\")
    line("        pthread_mutex_lock((pthread_mutex_t *)bus->dev_lock); \\")
    line("    devil_nat_cur = bus; \\")
    line("    devil_nat_env = &env; \\")
    line("    bus->fail_msg = 0; \\")
    line("    status = setjmp(env)")
    line()
    line("#define DEVIL_NAT_LEAVE() \\")
    line("    devil_nat_cur = prev_bus; \\")
    line("    devil_nat_env = prev_env; \\")
    line("    if (bus->dev_lock) \\")
    line("        pthread_mutex_unlock((pthread_mutex_t *)bus->dev_lock); \\")
    line("    return status")
    line()
    line(f"int {p}_nat_call(void *state, devil_nat_bus_t *bus, "
         "unsigned stub_id, const unsigned *args, unsigned *out)")
    line("{")
    line("    DEVIL_NAT_ENTER();")
    line("    if (status == 0)")
    line(f"        status = {p}_nat_dispatch(({p}_state_t *)state, "
         "stub_id, args, out);")
    line("    DEVIL_NAT_LEAVE();")
    line("}")
    line()
    line(f"int {p}_nat_repeat(void *state, devil_nat_bus_t *bus, "
         "unsigned stub_id, const unsigned *args, unsigned long n, "
         "unsigned *out)")
    line("{")
    line("    DEVIL_NAT_ENTER();")
    line("    if (status == 0) {")
    line("        unsigned long i;")
    line("        for (i = 0; i < n && status == 0; i++)")
    line(f"            status = {p}_nat_dispatch(({p}_state_t *)state, "
         "stub_id, args, out);")
    line("    }")
    line("    DEVIL_NAT_LEAVE();")
    line("}")
    line()
    line(f"int {p}_nat_read_block(void *state, devil_nat_bus_t *bus, "
         "unsigned block_id, unsigned *buffer, unsigned long count)")
    line("{")
    line("    DEVIL_NAT_ENTER();")
    line("    if (status == 0) {")
    line("        switch (block_id) {")
    for index, row in enumerate(blocks):
        if row.kind != "block_read":
            continue
        line(f"        case {index}: "
             f"{p}__{row.name}(({p}_state_t *)state, buffer, count); "
             "break;")
    line("        default: status = DEVIL_NAT_BADID;")
    line("        }")
    line("    }")
    line("    DEVIL_NAT_LEAVE();")
    line("}")
    line()
    line(f"int {p}_nat_write_block(void *state, devil_nat_bus_t *bus, "
         "unsigned block_id, const unsigned *buffer, unsigned long count)")
    line("{")
    line("    DEVIL_NAT_ENTER();")
    line("    if (status == 0) {")
    line("        switch (block_id) {")
    for index, row in enumerate(blocks):
        if row.kind != "block_write":
            continue
        line(f"        case {index}: "
             f"{p}__{row.name}(({p}_state_t *)state, buffer, count); "
             "break;")
    line("        default: status = DEVIL_NAT_BADID;")
    line("        }")
    line("    }")
    line("    DEVIL_NAT_LEAVE();")
    line("}")
    line()
    bases = ", ".join(f"bases[{i}]" for i in range(len(model.params)))
    line(f"void {p}_nat_init(void *state, const unsigned *bases)")
    line("{")
    line("    (void)bases;")
    if bases:
        line(f"    {p}__init(({p}_state_t *)state, {bases});")
    else:
        line(f"    {p}__init(({p}_state_t *)state);")
    line("}")
    line()
    line("/* Per-device mutex lifecycle.  Recursive so a callback that")
    line(" * re-enters the same binding cannot self-deadlock. */")
    line(f"void *{p}_nat_lock_new(void)")
    line("{")
    line("    pthread_mutexattr_t attr;")
    line("    pthread_mutex_t *mutex =")
    line("        (pthread_mutex_t *)malloc(sizeof(pthread_mutex_t));")
    line("    if (!mutex)")
    line("        return 0;")
    line("    pthread_mutexattr_init(&attr);")
    line("    pthread_mutexattr_settype(&attr, PTHREAD_MUTEX_RECURSIVE);")
    line("    pthread_mutex_init(mutex, &attr);")
    line("    pthread_mutexattr_destroy(&attr);")
    line("    return mutex;")
    line("}")
    line()
    line(f"void {p}_nat_lock_free(void *mutex)")
    line("{")
    line("    if (mutex) {")
    line("        pthread_mutex_destroy((pthread_mutex_t *)mutex);")
    line("        free(mutex);")
    line("    }")
    line("}")
    line()
    line("/* Layout cross-checks: the Python loader refuses a library "
         "whose")
    line(" * struct sizes disagree with its ctypes mirrors. */")
    line(f"unsigned long {p}_nat_state_size(void)")
    line("{")
    line(f"    return (unsigned long)sizeof({p}_state_t);")
    line("}")
    line()
    line(f"unsigned long {p}_nat_bus_abi_size(void)")
    line("{")
    line("    return (unsigned long)sizeof(devil_nat_bus_t);")
    line("}")
    line()
    line(f"unsigned long {p}_nat_port_abi_size(void)")
    line("{")
    line("    return (unsigned long)sizeof(devil_nat_port_t);")
    line("}")
    if with_models:
        line()
        line(f"unsigned long {p}_nat_ide_model_size(void)")
        line("{")
        line("    return (unsigned long)sizeof(devil_nat_ide_t);")
        line("}")
        line()
        line(f"unsigned long {p}_nat_pm2_model_size(void)")
        line("{")
        line("    return (unsigned long)sizeof(devil_nat_pm2_t);")
        line("}")
    return "\n".join(w) + "\n"
