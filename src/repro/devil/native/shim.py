"""The native strategy's CPython extension module, emitted per spec.

:func:`generate_shim` wraps one spec's generated C header (the paper's
Figure-3 stubs) into an extension module, built against the
interpreter's own C headers (:mod:`repro.devil.native.build`).  Its
type ``Core`` owns the state struct, the bus context and the per-device
mutex.  Its methods are the four entry points, ``call``, ``repeat``,
``read_block`` and ``write_block``, numbered by :func:`dispatch_rows`.
Its ``PyMemberDef`` table, written from
:func:`~repro.devil.codegen.c_backend.state_fields` like the header's
struct, exposes the state fields; the buffer protocol exposes their
bytes.  Port I/O calls the Python :class:`Bus` through the C API with
the GIL held, or, in a direct ``repeat()`` batch, runs with the GIL
released through the batch's port table: into the C-resident models
(:mod:`repro.devil.native.models`, state types ``IdeState`` and
``Pm2State`` whose buffers attach through the buffer protocol), or into
a Python device model by a raw callback that takes the GIL per access.
A failed ``DEVIL_CHECK`` or model fault unwinds by ``longjmp`` and the
entry calls the ``Core``'s ``fault`` handler, which raises the
interpreter's error; a callback's exception propagates as itself.

The mutex is recursive (a callback may re-enter its binding), and no
thread waits for it while holding the GIL: a callback-mode entry tries
the lock and releases the GIL only to wait, and a direct batch releases
the GIL before it locks.  So a mutex holder can always get the GIL back.
"""

from __future__ import annotations

from string import Template

from ..codegen.c_backend import c_value_cast, state_fields
from ..stubs import BLOCK_KINDS, Stub, stub_table

#: Entry status codes; every failure but ``STATUS_PYERR`` (a Python
#: exception, which propagates as itself) goes to the ``fault`` handler.
STATUS_PYERR = 1
STATUS_CHECK = 2    # a DEVIL_CHECK failed; the message is its text
STATUS_NODEV = 3    # direct mode: no device mapped at the port
STATUS_BADID = 4    # unknown stub id (loader/table version skew)
STATUS_DEVERR = 5   # a C device model raised; the message is the BusError's

#: The ``PyMemberDef`` type codes of the C field types the generated
#: structs use.
MEMBER_TYPES = {
    "unsigned": "T_UINT",
    "int": "T_INT",
    "unsigned char": "T_UBYTE",
    "long long": "T_LONGLONG",
    "unsigned long long": "T_ULONGLONG",
}


def module_name(prefix: str) -> str:
    """The name of the extension module (``PyInit_<name>``) that the
    shim of a spec emitted with ``prefix`` defines."""
    return f"{prefix}_nat"


def dispatch_rows(model) -> tuple[list[Stub], list[Stub]]:
    """The stub-table rows the extension dispatches, ``(singles,
    blocks)``; a row's position in its list is its ``case`` id.

    Memory rows stay on the Python side: their interpreter semantics
    (no set-actions on write, abstract values returned verbatim) live
    in Python against the state members.  Member getters *are* listed:
    single calls use the snapshot path in Python, but batched
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


def _members(owner: str, path: str, fields) -> str:
    """``PyMemberDef`` rows exposing ``(C type, name, ...)`` fields of
    the struct at ``owner.path``."""
    return "\n".join(f'    {{"{field[1]}", {MEMBER_TYPES[field[0]]}, '
                     f'offsetof({owner}, {path}{field[1]}), 0, NULL}},'
                     for field in fields)


def generate_shim(model, prefix: str | None = None,
                  header_name: str | None = None) -> str:
    """Emit the extension module's C source for ``model``.

    The same source serves debug and release builds: the header decides
    (via its embedded ``DEVIL_DEBUG`` define when emitted with
    ``debug=True``) whether the §3.2 checks and the fetched-structure
    flags are compiled in.
    """
    # The device models' module maps the device classes (and so numpy):
    # import it only when a shim is emitted.
    from .models import IDE_FIELDS, MODEL_C, PM2_FIELDS

    p = prefix or model.name
    singles, blocks = dispatch_rows(model)
    cases = []
    for index, row in enumerate(singles):
        if row.kind == "get":
            call = f"*out = (unsigned){p}__{row.name}(d)"
        elif row.kind == "get_struct":
            call = f"{p}__{row.name}(d)"
        else:  # set, set_struct
            call = f"{p}__{row.name}(d, " + ", ".join(
                c_value_cast(p, model.variables[param], f"args[{j}]")
                for j, param in enumerate(row.params)) + ")"
        cases.append(f"    case {index}: {call}; return 0;")
    fields = state_fields(model)
    return _SOURCE.substitute(
        spec=model.name, prefix=p, module=module_name(p),
        header=header_name or f"{p}.dil.h",
        max_args=max([len(row.params) for row in singles] + [1]),
        pyerr=STATUS_PYERR, check=STATUS_CHECK, nodev=STATUS_NODEV,
        badid=STATUS_BADID, deverr=STATUS_DEVERR,
        ide_fields="\n".join(f"    {t} {n};" for t, n, _ in IDE_FIELDS),
        pm2_fields="\n".join(f"    {t} {n};" for t, n, _ in PM2_FIELDS),
        model_c=MODEL_C.strip("\n"),
        ide_members=_members("devil_nat_ide_obj", "s.", IDE_FIELDS),
        pm2_members=_members("devil_nat_pm2_obj", "s.", PM2_FIELDS),
        cases="\n".join(cases),
        block_cases="\n".join(
            f"    case {index}: {p}__{row.name}(d, buffer, count); "
            "return 0;" for index, row in enumerate(blocks)),
        n_bases=len(model.params), bases_dim=max(len(model.params), 1),
        bases="".join(f", words[{i}]" for i in range(len(model.params))),
        state_members=_members("devil_nat_core_t", "state.",
                               [f for f in fields if not f[2]]),
        debug_members=_members("devil_nat_core_t", "state.",
                               [f for f in fields if f[2]]),
        counter_members=_members("devil_nat_core_t", "", [
            ("unsigned long long", name)
            for name in ("reads", "writes", "w8", "w16", "w32")]))


_SOURCE = Template(r"""/* Generated native extension module for specification '${spec}'.
 * Do not edit.  Build: cc -shared -fPIC -pthread -I<Python include>. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <pthread.h>
#include <setjmp.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define DEVIL_NAT_ARGS ${max_args}
#define DEVIL_NAT_PYERR ${pyerr}
#define DEVIL_NAT_CHECK ${check}
#define DEVIL_NAT_NODEV ${nodev}
#define DEVIL_NAT_BADID ${badid}
#define DEVIL_NAT_DEVERR ${deverr}

/* One bus mapping of a direct batch: a C-resident device model
 * (`model` != 0, its state at `mstate`) or a Python device model
 * reached through raw callbacks. */
typedef struct devil_nat_port {
    unsigned base;
    unsigned size;
    int model;
    void *mstate;
    PyObject *device;          /* borrowed from the batch's port tuple */
} devil_nat_port_t;

struct devil_nat_core;

/* One entry frame: the stubs run after a setjmp on `env`, and a
 * longjmp from any depth lands back in the same frame. */
typedef struct devil_nat_frame {
    struct devil_nat_core *core;
    struct devil_nat_frame *prev;
    int direct;                /* port-table dispatch, GIL released */
    devil_nat_port_t *ports;
    unsigned n_ports;
    PyThreadState *save;
    unsigned long long reads, writes, w8, w16, w32;  /* direct accesses */
    int status;
    const char *fail_msg;
    unsigned fail_port;
    char fail_buf[256];
    jmp_buf env;
} devil_nat_frame_t;

static __thread devil_nat_frame_t *devil_nat_cur;
static PyObject *devil_nat_str_read, *devil_nat_str_write;
static PyObject *devil_nat_str_io_read, *devil_nat_str_io_write;
static PyObject *devil_nat_str_collector;

static void devil_nat_unwind(int status)
{
    devil_nat_cur->status = status;
    longjmp(devil_nat_cur->env, 1);
}

static void devil_nat_fail(const char *msg)
{
    devil_nat_cur->fail_msg = msg;
    devil_nat_unwind(DEVIL_NAT_CHECK);
}

/* BusError from a C device model: format the exact message the Python
 * model would raise, then unwind. */
static void devil_nat_fail_fmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(devil_nat_cur->fail_buf, sizeof devil_nat_cur->fail_buf,
              fmt, ap);
    va_end(ap);
    devil_nat_cur->fail_msg = devil_nat_cur->fail_buf;
    devil_nat_unwind(DEVIL_NAT_DEVERR);
}

/* ---- C-resident device models ---- */

typedef struct devil_nat_ide {
${ide_fields}
    unsigned char *buffer;     /* attached: the PIO transfer buffer */
    unsigned long long buf_cap;
    unsigned char *store;      /* attached: the disk's backing store */
    unsigned long long store_len;
} devil_nat_ide_t;

typedef struct devil_nat_pm2 {
${pm2_fields}
    unsigned *fb;              /* attached: the framebuffer */
    unsigned fb_width, fb_height;
} devil_nat_pm2_t;

${model_c}

/* Their state types: members for the scalars; the attached buffers are
 * write-only attributes that take any writable buffer (None detaches). */
typedef struct devil_nat_ide_obj {
    PyObject_HEAD
    devil_nat_ide_t s;
    Py_buffer store, scratch;
} devil_nat_ide_obj;

typedef struct devil_nat_pm2_obj {
    PyObject_HEAD
    devil_nat_pm2_t s;
    Py_buffer fb;
} devil_nat_pm2_obj;

static PyMemberDef devil_nat_ide_members[] = {
${ide_members}
    {NULL}
};

static PyMemberDef devil_nat_pm2_members[] = {
${pm2_members}
    {NULL}
};

static int devil_nat_attach(Py_buffer *view, PyObject *value, int flags)
{
    Py_buffer fresh;
    memset(&fresh, 0, sizeof fresh);
    if (value != NULL && value != Py_None &&
            PyObject_GetBuffer(value, &fresh, flags | PyBUF_WRITABLE) < 0)
        return -1;
    if (view->obj)
        PyBuffer_Release(view);
    *view = fresh;
    return 0;
}

static int devil_nat_ide_attach(devil_nat_ide_obj *self, PyObject *value,
                                void *closure)
{
    /* the closure is the offset of the view in the object */
    if (devil_nat_attach((Py_buffer *)((char *)self + (size_t)closure),
                         value, 0) < 0)
        return -1;
    self->s.store = (unsigned char *)self->store.buf;
    self->s.store_len = (unsigned long long)self->store.len;
    self->s.buffer = (unsigned char *)self->scratch.buf;
    self->s.buf_cap = (unsigned long long)self->scratch.len;
    return 0;
}

static int devil_nat_pm2_attach(devil_nat_pm2_obj *self, PyObject *value,
                                void *closure)
{
    int status = devil_nat_attach(&self->fb, value,
                                  PyBUF_ND | PyBUF_FORMAT);
    (void)closure;
    if (status == 0 && self->fb.obj &&
            (self->fb.ndim != 2 || self->fb.itemsize != 4)) {
        PyBuffer_Release(&self->fb);
        PyErr_SetString(PyExc_ValueError, "the framebuffer must be a "
                        "C-contiguous 2-D buffer of 32-bit words");
        status = -1;
    }
    self->s.fb = (unsigned *)self->fb.buf;
    self->s.fb_height = self->fb.obj ? (unsigned)self->fb.shape[0] : 0u;
    self->s.fb_width = self->fb.obj ? (unsigned)self->fb.shape[1] : 0u;
    return status;
}

static void devil_nat_ide_dealloc(devil_nat_ide_obj *self)
{
    devil_nat_attach(&self->store, NULL, 0);
    devil_nat_attach(&self->scratch, NULL, 0);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static void devil_nat_pm2_dealloc(devil_nat_pm2_obj *self)
{
    devil_nat_attach(&self->fb, NULL, 0);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyGetSetDef devil_nat_ide_getset[] = {
    {"store", NULL, (setter)devil_nat_ide_attach,
     "the disk's backing store",
     (void *)offsetof(devil_nat_ide_obj, store)},
    {"scratch", NULL, (setter)devil_nat_ide_attach,
     "the PIO transfer buffer",
     (void *)offsetof(devil_nat_ide_obj, scratch)},
    {NULL}
};

static PyGetSetDef devil_nat_pm2_getset[] = {
    {"fb", NULL, (setter)devil_nat_pm2_attach,
     "the framebuffer", (void *)offsetof(devil_nat_pm2_obj, fb)},
    {NULL}
};

static PyTypeObject devil_nat_ide_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "${module}.IdeState",
    .tp_basicsize = sizeof(devil_nat_ide_obj),
    .tp_dealloc = (destructor)devil_nat_ide_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "State of the C-resident IDE disk model.",
    .tp_members = devil_nat_ide_members,
    .tp_getset = devil_nat_ide_getset,
    .tp_new = PyType_GenericNew,
};

static PyTypeObject devil_nat_pm2_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "${module}.Pm2State",
    .tp_basicsize = sizeof(devil_nat_pm2_obj),
    .tp_dealloc = (destructor)devil_nat_pm2_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "State of the C-resident Permedia2 model.",
    .tp_members = devil_nat_pm2_members,
    .tp_getset = devil_nat_pm2_getset,
    .tp_new = PyType_GenericNew,
};

/* A port-table entry's model state: the state type its kind runs on,
 * with every buffer the model touches attached. */
static int devil_nat_model_state(devil_nat_port_t *m, PyObject *state)
{
    if (m->model == 0)
        return 0;
    if ((m->model == 1 || m->model == 2) &&
            Py_TYPE(state) == &devil_nat_ide_type &&
            ((devil_nat_ide_obj *)state)->store.obj &&
            ((devil_nat_ide_obj *)state)->scratch.obj)
        m->mstate = &((devil_nat_ide_obj *)state)->s;
    else if ((m->model == 3 || m->model == 4) &&
             Py_TYPE(state) == &devil_nat_pm2_type &&
             ((devil_nat_pm2_obj *)state)->fb.obj)
        m->mstate = &((devil_nat_pm2_obj *)state)->s;
    else {
        PyErr_Format(PyExc_ValueError,
                     "model kind %d needs its attached state", m->model);
        return -1;
    }
    return 0;
}

/* ---- the spec's stubs ---- */

#define DEVIL_CHECK(cond, msg) \
    do { if (!(cond)) devil_nat_fail(msg); } while (0)
#define DEVIL_OBS_ACTION(kind, target) devil_nat_action(kind, target)
#define DEVIL_IO_DECLARED

static unsigned devil_in(unsigned port, int width);
static void devil_out(unsigned value, unsigned port, int width);
static void devil_in_rep(unsigned port, int width, unsigned long count,
                         unsigned *buffer);
static void devil_out_rep(unsigned port, int width, unsigned long count,
                          const unsigned *buffer);
static void devil_nat_action(const char *kind, const char *target);

#include "${header}"

typedef struct devil_nat_core {
    PyObject_HEAD
    ${prefix}_state_t state;
    PyObject *bus;
    PyObject *fault;
    pthread_mutex_t lock;
    /* Direct-mode accesses the binding has not yet merged into the bus
     * accounting; frames add theirs with the GIL held. */
    unsigned long long reads, writes, w8, w16, w32;
} devil_nat_core_t;

/* ---- port I/O ---- */

/* `target.name(a, b[, c])`, its result a word when `is_read`.  Python
 * runs with the GIL: a callback-mode frame holds it throughout, a
 * direct frame takes it back for the call.  A Python exception unwinds
 * the frame once the GIL is given back. */
static unsigned devil_nat_py(PyObject *target, PyObject *name, size_t nargs,
                             unsigned long a, unsigned long b,
                             unsigned long c, int is_read)
{
    int direct = devil_nat_cur->direct, failed;
    PyGILState_STATE gil = direct ? PyGILState_Ensure() : PyGILState_LOCKED;
    PyObject *args[4] = {target, NULL, NULL, NULL}, *result = NULL;
    unsigned long value = 0;
    args[1] = PyLong_FromUnsignedLong(a);
    args[2] = PyLong_FromUnsignedLong(b);
    if (nargs == 3)
        args[3] = PyLong_FromUnsignedLong(c);
    if (args[1] && args[2] && (nargs == 2 || args[3]))
        result = PyObject_VectorcallMethod(name, args, nargs + 1, NULL);
    Py_XDECREF(args[1]);
    Py_XDECREF(args[2]);
    Py_XDECREF(args[3]);
    if (result && is_read)
        value = PyLong_AsUnsignedLongMask(result);
    failed = result == NULL ||
             (value == (unsigned long)-1 && PyErr_Occurred() != NULL);
    Py_XDECREF(result);
    if (direct)
        PyGILState_Release(gil);
    if (failed)
        devil_nat_unwind(DEVIL_NAT_PYERR);
    return (unsigned)value;
}

static void devil_nat_action(const char *kind, const char *target)
{
    PyObject *collector, *result = NULL;
    int failed;
    if (devil_nat_cur->direct)  /* direct batches run with no collector */
        return;
    collector = PyObject_GetAttr(devil_nat_cur->core->bus,
                                 devil_nat_str_collector);
    if (collector != NULL && collector != Py_None)
        result = PyObject_CallMethod(collector, "record_action", "ss",
                                     kind, target);
    failed = collector == NULL || (collector != Py_None && result == NULL);
    Py_XDECREF(result);
    Py_XDECREF(collector);
    if (failed)
        devil_nat_unwind(DEVIL_NAT_PYERR);
}

static devil_nat_port_t *devil_nat_find(devil_nat_frame_t *f, unsigned port)
{
    unsigned i;
    for (i = 0; i < f->n_ports; i++)
        if (port >= f->ports[i].base &&
                port < f->ports[i].base + f->ports[i].size)
            return &f->ports[i];
    f->fail_port = port;
    devil_nat_unwind(DEVIL_NAT_NODEV);
    return 0;
}

static void devil_nat_count(devil_nat_frame_t *f, int width, int write)
{
    *(write ? &f->writes : &f->reads) += 1;
    *(width == 8 ? &f->w8 : width == 16 ? &f->w16 : &f->w32) += 1;
}

static unsigned devil_in(unsigned port, int width)
{
    devil_nat_frame_t *f = devil_nat_cur;
    devil_nat_port_t *m;
    unsigned value;
    if (!f->direct)
        return devil_nat_py(f->core->bus, devil_nat_str_read, 2, port,
                            (unsigned long)width, 0, 1);
    m = devil_nat_find(f, port);
    if (!m->model || !devil_nat_model_in(m, port - m->base, width, &value))
        value = devil_nat_py(m->device, devil_nat_str_io_read, 2,
                             port - m->base, (unsigned long)width, 0, 1);
    devil_nat_count(f, width, 0);
    return width >= 32 ? value : value & ((1u << width) - 1u);
}

static void devil_out(unsigned value, unsigned port, int width)
{
    devil_nat_frame_t *f = devil_nat_cur;
    devil_nat_port_t *m;
    if (!f->direct) {
        devil_nat_py(f->core->bus, devil_nat_str_write, 3, value, port,
                     (unsigned long)width, 0);
        return;
    }
    m = devil_nat_find(f, port);
    value &= width >= 32 ? 0xFFFFFFFFu : (1u << width) - 1u;
    if (!m->model || !devil_nat_model_out(m, port - m->base, value, width))
        devil_nat_py(m->device, devil_nat_str_io_write, 3, port - m->base,
                     value, (unsigned long)width, 0);
    devil_nat_count(f, width, 1);
}

/* Block transfers call bus.block_read(port, count, width) and
 * bus.block_write(port, words, width).  Only block stubs make them, and
 * those run in read_block/write_block frames, which hold the GIL. */
static void devil_in_rep(unsigned port, int width, unsigned long count,
                         unsigned *buffer)
{
    PyObject *words = PyObject_CallMethod(devil_nat_cur->core->bus,
                                          "block_read", "kki",
                                          (unsigned long)port, count, width);
    PyObject *fast = words ? PySequence_Fast(words, "no word list") : NULL;
    Py_ssize_t i, n = fast ? PySequence_Fast_GET_SIZE(fast) : 0;
    int failed = fast == NULL;
    for (i = 0; !failed && i < n && (unsigned long)i < count; i++) {
        unsigned long word =
            PyLong_AsUnsignedLongMask(PySequence_Fast_GET_ITEM(fast, i));
        failed = word == (unsigned long)-1 && PyErr_Occurred() != NULL;
        buffer[i] = (unsigned)word;
    }
    Py_XDECREF(fast);
    Py_XDECREF(words);
    if (failed)
        devil_nat_unwind(DEVIL_NAT_PYERR);
}

static void devil_out_rep(unsigned port, int width, unsigned long count,
                          const unsigned *buffer)
{
    PyObject *words = PyList_New((Py_ssize_t)count), *result = NULL;
    unsigned long i;
    for (i = 0; words != NULL && i < count; i++) {
        PyObject *word = PyLong_FromUnsignedLong(buffer[i]);
        if (word == NULL)
            Py_CLEAR(words);
        else
            PyList_SET_ITEM(words, (Py_ssize_t)i, word);
    }
    if (words != NULL)
        result = PyObject_CallMethod(devil_nat_cur->core->bus,
                                     "block_write", "kOi",
                                     (unsigned long)port, words, width);
    Py_XDECREF(words);
    if (result == NULL)
        devil_nat_unwind(DEVIL_NAT_PYERR);
    Py_DECREF(result);
}

/* ---- dispatch ---- */

static int devil_nat_dispatch(${prefix}_state_t *d, unsigned stub_id,
                              const unsigned *args, unsigned *out)
{
    (void)args;
    (void)out;
    switch (stub_id) {
${cases}
    default: return DEVIL_NAT_BADID;
    }
}

static int devil_nat_block(${prefix}_state_t *d, unsigned block_id,
                           unsigned *buffer, unsigned long count)
{
    (void)d;
    (void)buffer;
    (void)count;
    switch (block_id) {
${block_cases}
    default: return DEVIL_NAT_BADID;
    }
}

/* ---- entry frames ---- */

/* Lock the device and open a frame.  A callback-mode frame keeps the
 * GIL: it tries the mutex and releases the GIL only to wait.  A direct
 * frame (a port table) releases the GIL first, for the whole frame. */
static void devil_nat_enter(devil_nat_frame_t *f, devil_nat_core_t *self,
                            devil_nat_port_t *ports, unsigned n_ports)
{
    f->save = NULL;
    if (ports != NULL) {
        f->save = PyEval_SaveThread();
        pthread_mutex_lock(&self->lock);
    } else if (pthread_mutex_trylock(&self->lock) != 0) {
        Py_BEGIN_ALLOW_THREADS
        pthread_mutex_lock(&self->lock);
        Py_END_ALLOW_THREADS
    }
    f->core = self;
    f->prev = devil_nat_cur;
    f->direct = ports != NULL;
    f->ports = ports;
    f->n_ports = n_ports;
    f->reads = f->writes = f->w8 = f->w16 = f->w32 = 0;
    f->status = 0;
    f->fail_msg = NULL;
    f->fail_port = 0;
    devil_nat_cur = f;
}

/* Close the frame and unlock; a failed frame raises its exception: a
 * callback's propagates as itself, every other fault goes to the
 * binding's handler, which raises. */
static int devil_nat_leave(devil_nat_frame_t *f)
{
    PyObject *result;
    devil_nat_core_t *core = f->core;
    devil_nat_cur = f->prev;
    pthread_mutex_unlock(&core->lock);
    if (f->save != NULL)
        PyEval_RestoreThread(f->save);
    core->reads += f->reads;
    core->writes += f->writes;
    core->w8 += f->w8;
    core->w16 += f->w16;
    core->w32 += f->w32;
    if (f->status == 0 || f->status == DEVIL_NAT_PYERR)
        return f->status;
    result = PyObject_CallFunction(core->fault, "isI", f->status,
                                   f->fail_msg, f->fail_port);
    Py_XDECREF(result);
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_SystemError, "native fault handler returned");
    return f->status;
}

static int devil_nat_id(PyObject *const *args, Py_ssize_t nargs,
                        Py_ssize_t least, Py_ssize_t most, unsigned *id)
{
    unsigned long value;
    if (nargs < least || nargs > most) {
        PyErr_SetString(PyExc_TypeError, "wrong number of arguments");
        return -1;
    }
    value = PyLong_AsUnsignedLong(args[0]);
    if (value == (unsigned long)-1 && PyErr_Occurred())
        return -1;
    *id = (unsigned)value;
    return 0;
}

/* `n` raw words, masked to 32 bits. */
static int devil_nat_words(PyObject *const *args, Py_ssize_t n,
                           unsigned *words)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        unsigned long word = PyLong_AsUnsignedLongMask(args[i]);
        if (word == (unsigned long)-1 && PyErr_Occurred())
            return -1;
        words[i] = (unsigned)word;
    }
    return 0;
}

/* A direct batch's port table, from a tuple of
 * `(base, size, device, model kind, model state)` entries. */
static devil_nat_port_t *devil_nat_ports(PyObject *table, unsigned *count)
{
    Py_ssize_t i, n = PyTuple_Check(table) ? PyTuple_GET_SIZE(table) : -1;
    devil_nat_port_t *ports;
    if (n < 0) {
        PyErr_SetString(PyExc_TypeError, "the port table is a tuple");
        return NULL;
    }
    ports = (devil_nat_port_t *)PyMem_Calloc(n ? (size_t)n : 1u,
                                             sizeof *ports);
    if (ports == NULL)
        return (devil_nat_port_t *)PyErr_NoMemory();
    for (i = 0; i < n; i++) {
        devil_nat_port_t *m = &ports[i];
        PyObject *state;
        if (!PyArg_ParseTuple(PyTuple_GET_ITEM(table, i), "IIOiO",
                              &m->base, &m->size, &m->device, &m->model,
                              &state) ||
                devil_nat_model_state(m, state) < 0) {
            PyMem_Free(ports);
            return NULL;
        }
    }
    *count = (unsigned)n;
    return ports;
}

/* `n` calls of one stub in one frame, direct with a port table; the
 * last call's out word (0 for setters). */
static PyObject *devil_nat_run(devil_nat_core_t *self, unsigned stub_id,
                               unsigned long n, devil_nat_port_t *ports,
                               unsigned n_ports, const unsigned *words)
{
    devil_nat_frame_t frame;
    unsigned long i;
    unsigned out = 0;
    devil_nat_enter(&frame, self, ports, n_ports);
    if (setjmp(frame.env) == 0)
        for (i = 0; i < n && frame.status == 0; i++)
            frame.status = devil_nat_dispatch(&self->state, stub_id, words,
                                              &out);
    if (devil_nat_leave(&frame))
        return NULL;
    return PyLong_FromUnsignedLong(out);
}

static int devil_nat_run_block(devil_nat_core_t *self, unsigned block_id,
                               unsigned *buffer, unsigned long count)
{
    devil_nat_frame_t frame;
    devil_nat_enter(&frame, self, NULL, 0);
    if (setjmp(frame.env) == 0)
        frame.status = devil_nat_block(&self->state, block_id, buffer,
                                       count);
    return devil_nat_leave(&frame);
}

/* call(stub_id, *words) -> the stub's out word */
static PyObject *devil_nat_call(devil_nat_core_t *self,
                                PyObject *const *args, Py_ssize_t nargs)
{
    unsigned stub_id, words[DEVIL_NAT_ARGS] = {0};
    if (devil_nat_id(args, nargs, 1, 1 + DEVIL_NAT_ARGS, &stub_id) < 0 ||
            devil_nat_words(args + 1, nargs - 1, words) < 0)
        return NULL;
    return devil_nat_run(self, stub_id, 1, NULL, 0, words);
}

/* repeat(stub_id, n, ports, *words) -> the last call's out word; with a
 * port table (not None) the batch runs direct. */
static PyObject *devil_nat_repeat(devil_nat_core_t *self,
                                  PyObject *const *args, Py_ssize_t nargs)
{
    devil_nat_port_t *ports = NULL;
    unsigned stub_id, words[DEVIL_NAT_ARGS] = {0}, n_ports = 0;
    unsigned long n;
    PyObject *out;
    if (devil_nat_id(args, nargs, 3, 3 + DEVIL_NAT_ARGS, &stub_id) < 0 ||
            devil_nat_words(args + 3, nargs - 3, words) < 0)
        return NULL;
    n = PyLong_AsUnsignedLong(args[1]);
    if ((n == (unsigned long)-1 && PyErr_Occurred()) || (args[2] != Py_None
            && (ports = devil_nat_ports(args[2], &n_ports)) == NULL))
        return NULL;
    out = devil_nat_run(self, stub_id, n, ports, n_ports, words);
    PyMem_Free(ports);
    return out;
}

/* read_block(block_id, count) -> list of words */
static PyObject *devil_nat_read_block(devil_nat_core_t *self,
                                      PyObject *const *args,
                                      Py_ssize_t nargs)
{
    unsigned block_id, *buffer;
    unsigned long count = 0, i;
    PyObject *words = NULL;
    if (devil_nat_id(args, nargs, 2, 2, &block_id) < 0 ||
            ((count = PyLong_AsUnsignedLong(args[1])) == (unsigned long)-1
             && PyErr_Occurred()))
        return NULL;
    buffer = (unsigned *)PyMem_Calloc(count ? count : 1u, sizeof *buffer);
    if (buffer == NULL)
        return PyErr_NoMemory();
    if (devil_nat_run_block(self, block_id, buffer, count) == 0)
        words = PyList_New((Py_ssize_t)count);
    for (i = 0; words != NULL && i < count; i++) {
        PyObject *word = PyLong_FromUnsignedLong(buffer[i]);
        if (word == NULL)
            Py_CLEAR(words);
        else
            PyList_SET_ITEM(words, (Py_ssize_t)i, word);
    }
    PyMem_Free(buffer);
    return words;
}

/* write_block(block_id, words) -> None */
static PyObject *devil_nat_write_block(devil_nat_core_t *self,
                                       PyObject *const *args,
                                       Py_ssize_t nargs)
{
    unsigned block_id, *buffer;
    Py_ssize_t count;
    PyObject *fast;
    int status;
    if (devil_nat_id(args, nargs, 2, 2, &block_id) < 0 ||
            !(fast = PySequence_Fast(args[1], "write_block takes words")))
        return NULL;
    count = PySequence_Fast_GET_SIZE(fast);
    buffer = (unsigned *)PyMem_Calloc(count ? (size_t)count : 1u,
                                      sizeof *buffer);
    status = buffer == NULL ? (PyErr_NoMemory(), -1) : devil_nat_words(
        PySequence_Fast_ITEMS(fast), count, buffer);
    Py_DECREF(fast);
    if (status == 0)
        status = devil_nat_run_block(self, block_id, buffer,
                                     (unsigned long)count);
    PyMem_Free(buffer);
    if (status)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- the Core type and the module ---- */

/* Core(bus, bases, fault): `bases` in parameter order; `fault(status,
 * message, port)` raises the error a failed frame stands for. */
static PyObject *devil_nat_new(PyTypeObject *type, PyObject *args,
                               PyObject *kwargs)
{
    PyObject *bus, *bases, *fault, *fast;
    unsigned words[${bases_dim}];
    devil_nat_core_t *self;
    pthread_mutexattr_t attr;
    int status = -1;
    (void)kwargs;
    if (!PyArg_ParseTuple(args, "OOO:Core", &bus, &bases, &fault) ||
            (fast = PySequence_Fast(bases, "bases is a sequence")) == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(fast) != ${n_bases})
        PyErr_SetString(PyExc_ValueError, "expected ${n_bases} port bases");
    else
        status = devil_nat_words(PySequence_Fast_ITEMS(fast), ${n_bases},
                                 words);
    Py_DECREF(fast);
    if (status < 0 ||
            (self = (devil_nat_core_t *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    pthread_mutexattr_init(&attr);
    pthread_mutexattr_settype(&attr, PTHREAD_MUTEX_RECURSIVE);
    pthread_mutex_init(&self->lock, &attr);
    pthread_mutexattr_destroy(&attr);
    Py_INCREF(bus);
    self->bus = bus;
    Py_INCREF(fault);
    self->fault = fault;
    ${prefix}__init(&self->state${bases});
    return (PyObject *)self;
}

static PyMemberDef devil_nat_core_members[] = {
${state_members}
#ifdef DEVIL_DEBUG
${debug_members}
#endif
${counter_members}
    {NULL}
};

static PyMethodDef devil_nat_core_methods[] = {
    {"call", (PyCFunction)(void (*)(void))devil_nat_call, METH_FASTCALL,
     "call(stub_id, *words): one stub call"},
    {"repeat", (PyCFunction)(void (*)(void))devil_nat_repeat,
     METH_FASTCALL, "repeat(stub_id, n, ports, *words): n stub calls"},
    {"read_block", (PyCFunction)(void (*)(void))devil_nat_read_block,
     METH_FASTCALL, "read_block(block_id, count): one block read"},
    {"write_block", (PyCFunction)(void (*)(void))devil_nat_write_block,
     METH_FASTCALL, "write_block(block_id, words): one block write"},
    {NULL}
};

/* The state struct's bytes, read-only. */
static int devil_nat_getbuffer(devil_nat_core_t *self, Py_buffer *view,
                               int flags)
{
    return PyBuffer_FillInfo(view, (PyObject *)self, &self->state,
                             (Py_ssize_t)sizeof self->state, 1, flags);
}

static PyBufferProcs devil_nat_as_buffer = {
    (getbufferproc)devil_nat_getbuffer, NULL
};

static int devil_nat_traverse(devil_nat_core_t *self, visitproc visit,
                              void *arg)
{
    Py_VISIT(self->bus);
    Py_VISIT(self->fault);
    return 0;
}

static int devil_nat_clear(devil_nat_core_t *self)
{
    Py_CLEAR(self->bus);
    Py_CLEAR(self->fault);
    return 0;
}

static void devil_nat_dealloc(devil_nat_core_t *self)
{
    PyObject_GC_UnTrack(self);
    devil_nat_clear(self);
    pthread_mutex_destroy(&self->lock);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject devil_nat_core_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "${module}.Core",
    .tp_basicsize = sizeof(devil_nat_core_t),
    .tp_dealloc = (destructor)devil_nat_dealloc,
    .tp_as_buffer = &devil_nat_as_buffer,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Core(bus, bases, fault): one device's native state.",
    .tp_traverse = (traverseproc)devil_nat_traverse,
    .tp_clear = (inquiry)devil_nat_clear,
    .tp_methods = devil_nat_core_methods,
    .tp_members = devil_nat_core_members,
    .tp_new = devil_nat_new,
    .tp_free = PyObject_GC_Del,
};

static struct PyModuleDef devil_nat_module = {
    PyModuleDef_HEAD_INIT, "${module}",
    "Native stubs for specification '${spec}'.", -1, NULL,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit_${module}(void)
{
    PyObject *module;
    if (!(devil_nat_str_read = PyUnicode_InternFromString("read")) ||
            !(devil_nat_str_write = PyUnicode_InternFromString("write")) ||
            !(devil_nat_str_io_read = PyUnicode_InternFromString("io_read")) ||
            !(devil_nat_str_io_write =
                  PyUnicode_InternFromString("io_write")) ||
            !(devil_nat_str_collector =
                  PyUnicode_InternFromString("collector")) ||
            PyType_Ready(&devil_nat_core_type) < 0 ||
            PyType_Ready(&devil_nat_ide_type) < 0 ||
            PyType_Ready(&devil_nat_pm2_type) < 0 ||
            (module = PyModule_Create(&devil_nat_module)) == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Core",
                              (PyObject *)&devil_nat_core_type) < 0 ||
            PyModule_AddObjectRef(module, "IdeState",
                                  (PyObject *)&devil_nat_ide_type) < 0 ||
            PyModule_AddObjectRef(module, "Pm2State",
                                  (PyObject *)&devil_nat_pm2_type) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
""")
