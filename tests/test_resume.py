"""Resumed front ends: re-parsing or re-checking only around an edit.

A campaign mutant splices its target's baseline tokens
(:func:`repro.devil.lexer.splice`, :func:`repro.minic.lexer.splice_c`)
and then resumes the baseline's parse (Devil: from the declaration
holding the edit until a later declaration starts the baseline's
unchanged rest) or check (C and CDevil: from the checkpoint before the
edit until an item boundary with the baseline's global scope).  A Devil
mutant then resumes the baseline's recorded check too, resolving again
only the declarations the edit can reach.  Either way the result must
equal a full parse or check of the mutated text, locations and
diagnostics included, or fail with the same message; and a check that
stops at the first error stops at a full check's first error.
"""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.devil.checker import Checker, check, record_check
from repro.devil.compiler import outline_spec
from repro.devil.errors import (
    DevilCheckError,
    DevilLexError,
    DevilParseError,
    DiagnosticSink,
    FirstErrorSink,
)
from repro.devil.lexer import splice, tokenize
from repro.devil.parser import Parser, outline, parse
from repro.minic import CLexError, CParseError, check_c, kernel_externals
from repro.minic.checker import _Checker
from repro.minic.lexer import splice_c, tokenize_c
from repro.mutation.analysis import MutantCaps
from repro.mutation.registry import DRIVER_CORPUS, get_target, target_ids
from repro.mutation.rules import mutants_for_site
from repro.mutation.targets import stub_externals
from repro.specs import compile_shipped


def c_environment(target_id):
    """The ``externals`` and ``constants`` a C or CDevil target checks
    with (as :func:`repro.mutation.targets.cdevil_target` builds them)."""
    spec, _, style = target_id.partition("/")
    externals, constants = kernel_externals(), set()
    if style == "cdevil":
        for name, prefix in DRIVER_CORPUS[spec][2]:
            functions, values = stub_externals(compile_shipped(name).model,
                                               prefix)
            externals.update(functions)
            constants.update(values)
    return externals, constants


def parse_outcome(text, **resume):
    try:
        return parse(text, **resume)
    except DevilParseError as error:
        return str(error)


def check_outcome(text, environment, **resume):
    try:
        result = check_c(text, *environment, **resume)
    except CParseError as error:
        return str(error)
    return result.diagnostics, result.defined_functions


def check_outcome_devil(syntax, sink=None, baseline=None):
    """The model (None if rejected) and the diagnostics of checking
    ``syntax``."""
    sink = DiagnosticSink() if sink is None else sink
    try:
        model = check(syntax, sink, baseline)
    except DevilCheckError:
        model = None
    return model, sink.diagnostics


def assert_devil_checks_exactly(checked, resumed, full):
    """Checking ``resumed`` (a parse resumed from the outline whose
    recorded check is ``checked``) from ``checked`` gives the full
    check of ``full``, the full parse of the same text: an equal model
    (or none) and the same diagnostics in the same order.  With a
    :class:`FirstErrorSink` it raises that check's first error, having
    reported what the full check reports up to it."""
    model, diagnostics = check_outcome_devil(full)
    assert check_outcome_devil(resumed, baseline=checked) == \
        (model, diagnostics)
    sink = FirstErrorSink()
    if model is not None:
        assert check(resumed, sink, checked) == model
        assert sink.diagnostics == diagnostics
        return
    with pytest.raises(DevilCheckError) as raised:
        check(resumed, sink, checked)
    first = next(d for d in diagnostics if d.severity == "error")
    assert (raised.value.message, raised.value.location) == \
        (first.message, first.location)
    assert sink.diagnostics == diagnostics[:diagnostics.index(first) + 1]


def assert_devil_resumes_exactly(baseline, tokens, text, offset, removed,
                                 inserted):
    """The parse resumed from ``baseline`` equals a full parse of
    ``text`` (or raises the same message), and so does the check
    resumed from the baseline's recorded check, if it has one (see
    :func:`assert_devil_checks_exactly`); False if it does not lex."""
    try:
        new, first, reuse = splice(tokens, text, offset, removed, inserted)
    except DevilLexError:
        return False
    resumed = parse_outcome(text, tokens=new, baseline=baseline,
                            span=(first, reuse))
    full = parse_outcome(text)
    assert resumed == full
    if baseline.checked is not None and not isinstance(full, str):
        assert_devil_checks_exactly(baseline.checked, resumed, full)
    return True


def assert_c_resumes_exactly(baseline, environment, tokens, text, offset,
                             removed, inserted):
    """The check resumed from ``baseline`` equals a full check of
    ``text`` (or raises the same message); False if it does not lex."""
    try:
        new, first, reuse = splice_c(tokens, text, offset, removed,
                                     inserted)
    except CLexError:
        return False
    assert check_outcome(text, environment, tokens=new, baseline=baseline,
                         span=(first, reuse)) == \
        check_outcome(text, environment)
    return True


def edited(source, old, new, start=0):
    """``source`` with the first ``old`` at or after ``start`` replaced
    by ``new``, and the edit's ``(offset, removed, inserted)``."""
    offset = source.index(old, start)
    return (source[:offset] + new + source[offset + len(old):],
            offset, len(old), len(new))


@pytest.fixture
def parsed_declarations(monkeypatch):
    """Counts the declarations parsed (leading types included)."""
    counts = []
    for name in ("_parse_declaration", "_parse_type_decl"):
        method = getattr(Parser, name)

        def counted(self, method=method):
            counts.append(self._index)
            return method(self)
        monkeypatch.setattr(Parser, name, counted)
    return counts


@pytest.fixture
def checked_items(monkeypatch):
    """Counts the top-level C items checked."""
    counts = []
    method = _Checker._top_level

    def counted(self):
        counts.append(self._index)
        return method(self)
    monkeypatch.setattr(_Checker, "_top_level", counted)
    return counts


DEVIL = """\
type mode_t = { SLOW <=> '0', FAST <=> '1' };
type level_t = int(4);
device demo (base : bit[8] port @ {0..3})
{
  register r = base @ 0 : bit[8];
  register s = base @ 1 : bit[8]; register u = base @ 2 : bit[8];
  variable x = r[3..0] : level_t;
  variable m = r[4] : mode_t;
  variable y = s, volatile : int(8);
  variable z = u : int(8);
  structure st = {
    variable lo = r[7..5] : int(3);
  };
}
"""


class TestDevilNamedEdits:
    @pytest.fixture(scope="class")
    def baseline(self):
        return outline(DEVIL, tokens=tuple(tokenize(DEVIL)))

    def resumed(self, baseline, old, new, start=0, counts=None):
        """The resumed parse of one edit, checked against a full parse;
        ``counts`` (a counting fixture) sees the resumed parse only."""
        text, offset, removed, inserted = edited(DEVIL, old, new, start)
        new_tokens, first, reuse = splice(tuple(tokenize(DEVIL)), text,
                                          offset, removed, inserted)
        expected = parse_outcome(text)
        if counts is not None:
            counts.clear()
        result = parse_outcome(text, tokens=new_tokens, baseline=baseline,
                               span=(first, reuse))
        assert result == expected
        return result

    def test_outline_records_every_declaration_start(self, baseline):
        tokens = tokenize(DEVIL)
        assert len(baseline.starts) == len(baseline.syntax.declarations)
        for start, declaration in zip(baseline.starts,
                                      baseline.syntax.declarations):
            assert tokens[start].location == declaration.location
        assert tokens[baseline.header].text == "device"
        assert baseline.size == len(tokens)

    def test_edit_in_leading_type_resyncs_at_the_next_type(
            self, baseline, parsed_declarations):
        syntax = self.resumed(baseline, "FAST", "FASTER",
                              counts=parsed_declarations)
        assert syntax.declarations[0].type_expr.items[1].name == "FASTER"
        assert len(parsed_declarations) == 1

    def test_edit_in_last_leading_type_reparses_the_header(
            self, baseline, parsed_declarations):
        syntax = self.resumed(baseline, "int(4)", "int(5)",
                              counts=parsed_declarations)
        assert syntax.declarations[1].type_expr.width == 5
        # The header is re-parsed; the body resyncs at its first
        # declaration, which begins on a later line.
        assert len(parsed_declarations) == 1

    def test_edit_in_the_header_parses_in_full(self, baseline,
                                               parsed_declarations):
        syntax = self.resumed(baseline, "{0..3}", "{0..7}",
                              counts=parsed_declarations)
        assert syntax.params[0].offsets == [(0, 7)]
        assert len(parsed_declarations) == len(baseline.starts)

    def test_edit_in_the_device_name_parses_in_full(self, baseline):
        assert self.resumed(baseline, "demo", "demos").name == "demos"

    def test_edit_in_the_body_reparses_one_declaration(
            self, baseline, parsed_declarations):
        syntax = self.resumed(baseline, "volatile", "block",
                              counts=parsed_declarations)
        assert syntax.declarations[7].behaviors.block
        assert len(parsed_declarations) == 1

    def test_resync_never_lands_on_the_edit_line(self, baseline,
                                                 parsed_declarations):
        # ``register u`` shares the edited line, so its columns move:
        # it is parsed again (after ``r``, which holds the token
        # before the edit, and ``s``), and ``x`` is the resync point.
        syntax = self.resumed(baseline, "register s", "register sss",
                              counts=parsed_declarations)
        line = DEVIL.splitlines()[5]
        assert syntax.declarations[4].location.column == \
            line.index("register u") + 1 + 2
        assert len(parsed_declarations) == 3

    def test_deleting_the_closing_brace(self, baseline):
        message = self.resumed(baseline, "};\n}", "};\n")
        assert "end of input" in message

    def test_deleting_a_semicolon_swallows_the_next_declaration(
            self, baseline):
        message = self.resumed(baseline, "bit[8];", "bit[8]",
                               DEVIL.index("register s"))
        assert "expected ; after register declaration, found keyword " \
            "'register'" in message

    def test_inserting_a_newline_moves_every_later_line(self, baseline):
        syntax = self.resumed(baseline, "variable x", "\nvariable x")
        assert syntax.declarations[-1].location.line == 12


@pytest.fixture
def resolved_declarations(monkeypatch):
    """The names of the declarations a check resolves (structure
    members included) rather than replaying from its baseline."""
    names = []
    for name in ("_collect_type", "_collect_register", "_collect_variable",
                 "_collect_structure"):
        method = getattr(Checker, name)

        def counted(self, decl, *args, method=method, **kwargs):
            names.append(decl.name)
            return method(self, decl, *args, **kwargs)
        monkeypatch.setattr(Checker, name, counted)
    return names


CHECKED = """\
type mode_t = { SLOW <=> '0', FAST <=> '1' };
device demo (base : bit[8] port @ {0..3})
{
  mode setup, run;
  register r = base @ 0, in setup : bit[8];
  register s = base @ 1 : bit[8];
  register idx(i : int{0..1}) = base @ 2, pre {sel = i} : bit[8];
  register a0 = idx(0);
  register a1 = idx(1);
  register t = base @ 3, mask '*******.', in run : bit[8];
  variable sel = t[0] : int(1);
  variable x = r[3..0] : int(4);
  variable m = r[4] : mode_t;
  variable hi = r[7..5] : int(3);
  variable y = s, volatile : int(8);
  structure pair = {
    variable v0 = a0 : int(8);
    variable v1 = a1 : int(8);
  };
}
"""


class TestDevilResumedChecks:
    """Which declarations a resumed check resolves again, on named
    edits of a spec that checks clean; each result is compared with a
    full check (:func:`assert_devil_checks_exactly`)."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return outline_spec(CHECKED, tokens=tuple(tokenize(CHECKED)))

    def resolved(self, baseline, names, old, new, start=0):
        """The diagnostics of checking one edit of ``CHECKED``, and the
        declarations resolved again (into ``names``)."""
        text, offset, removed, inserted = edited(CHECKED, old, new, start)
        tokens, first, reuse = splice(tuple(tokenize(CHECKED)), text,
                                      offset, removed, inserted)
        resumed = parse(text, tokens=tokens, baseline=baseline,
                        span=(first, reuse))
        assert_devil_checks_exactly(baseline.checked, resumed, parse(text))
        names.clear()
        _, diagnostics = check_outcome_devil(resumed,
                                             baseline=baseline.checked)
        return diagnostics

    def test_the_baseline_checks_clean(self, baseline):
        model, diagnostics = check_outcome_devil(baseline.syntax)
        assert model is not None and diagnostics == []
        assert len(baseline.checked.entries) == 13
        assert record_check(baseline.syntax) == baseline.checked

    def test_an_unchanged_text_replays_every_declaration(
            self, baseline, resolved_declarations):
        model, _ = check_outcome_devil(baseline.syntax,
                                       baseline=baseline.checked)
        assert resolved_declarations == []
        assert model == check(parse(CHECKED))

    def test_a_variable_edit_resolves_that_variable(
            self, baseline, resolved_declarations):
        diagnostics = self.resolved(baseline, resolved_declarations,
                                    "int(4)", "int(5)")
        assert resolved_declarations == ["x"]
        assert diagnostics[0].message.startswith(
            "variable 'x' is 4 bit(s) wide")

    def test_a_register_edit_resolves_its_variables(
            self, baseline, resolved_declarations):
        self.resolved(baseline, resolved_declarations, "base @ 1",
                      "base @ 2")
        assert resolved_declarations == ["s", "y"]

    def test_a_type_edit_resolves_its_variables(self, baseline,
                                                resolved_declarations):
        diagnostics = self.resolved(baseline, resolved_declarations,
                                    "FAST", "FASTER")
        assert resolved_declarations == ["mode_t", "m"]
        assert diagnostics == []

    def test_a_constructor_edit_resolves_its_instantiations(
            self, baseline, resolved_declarations):
        self.resolved(baseline, resolved_declarations, "int{0..1}",
                      "int{0..2}")
        # ``pair`` reads a0 and a1 through its members.
        assert resolved_declarations == ["idx", "a0", "a1", "pair", "v0",
                                         "v1"]

    def test_a_rename_collides_with_a_later_declaration(
            self, baseline, resolved_declarations):
        diagnostics = self.resolved(baseline, resolved_declarations,
                                    "register s", "register y")
        # The register and the variable ``y``, which now finds its name
        # taken.  (The parse resumes at the declaration holding the
        # token before the re-lexed one, so ``r`` is a new node too,
        # and its variables are resolved again with it.)
        assert resolved_declarations == ["r", "y", "x", "m", "hi", "y"]
        messages = [d.message for d in diagnostics]
        assert messages[0].startswith("variable 'y' is already declared")
        assert messages[-1] == "register 'y' is never used by any variable"

    def test_a_rename_into_a_looked_up_name(self, baseline,
                                            resolved_declarations):
        # ``sel`` looked ``sel`` up (a miss) before declaring it; once
        # the register ``t`` is renamed ``sel``, ``sel`` the variable
        # finds its name taken and loses the register it read.
        diagnostics = self.resolved(baseline, resolved_declarations,
                                    "register t", "register sel")
        assert resolved_declarations == ["a1", "sel", "sel", "pair", "v0",
                                         "v1"]
        assert diagnostics[0].message.startswith(
            "variable 'sel' is already declared")

    @pytest.mark.parametrize("old,new", [("{0..3}", "{0..4}"),
                                         ("demo", "demos"),
                                         ("setup, run", "setup, ran")])
    def test_header_and_mode_edits_check_in_full(
            self, baseline, resolved_declarations, old, new):
        self.resolved(baseline, resolved_declarations, old, new)
        assert len(resolved_declarations) == 15  # with the 2 members


C_FRAGMENT = """\
#define BASE 0x10
#define PAIR(a, b) ((a) + (b))
int twice(int v) { return PAIR(v, v); }
int add(int a, int b)
{
    return a + b;
}
int poll(void)
{
    outb(BASE, 0x80);
    return add(1, 2) + twice(BASE);
}
int last(void) { return BASE; }
"""


class TestCNamedEdits:
    environment = (kernel_externals(), set())

    @pytest.fixture(scope="class")
    def baseline(self):
        return check_c(C_FRAGMENT, *self.environment,
                       tokens=tuple(tokenize_c(C_FRAGMENT)))

    def resumed(self, baseline, old, new, start=0, counts=None):
        """The resumed check of one edit, checked against a full check;
        ``counts`` (a counting fixture) sees the resumed check only."""
        text, offset, removed, inserted = edited(C_FRAGMENT, old, new,
                                                 start)
        new_tokens, first, reuse = splice_c(
            tuple(tokenize_c(C_FRAGMENT)), text, offset, removed,
            inserted)
        expected = check_outcome(text, self.environment)
        if counts is not None:
            counts.clear()
        result = check_outcome(text, self.environment, tokens=new_tokens,
                               baseline=baseline, span=(first, reuse))
        assert result == expected
        return result

    def test_checkpoints_cover_every_item_and_eof(self, baseline):
        tokens = tokenize_c(C_FRAGMENT)
        indices = [point.index for point in baseline.checkpoints]
        assert indices[0] == 0 and indices[-1] == len(tokens) - 1
        assert len(indices) == 7
        assert baseline.checkpoints[-1].defined_functions == \
            frozenset(baseline.defined_functions)

    def test_edit_in_a_function_body_resyncs_at_the_next_item(
            self, baseline, checked_items):
        diagnostics, _ = self.resumed(baseline, "0x80", "0x81",
                                      counts=checked_items)
        assert diagnostics == []
        assert len(checked_items) == 1

    def test_renamed_define_runs_to_eof(self, baseline, checked_items):
        diagnostics, _ = self.resumed(baseline, "BASE", "BASF",
                                      counts=checked_items)
        assert len(checked_items) == 6
        assert [d.line for d in diagnostics] == [10, 11, 13]
        assert all("'BASE' undeclared" in d.message for d in diagnostics)

    def test_changed_function_arity_runs_to_eof(self, baseline):
        diagnostics, _ = self.resumed(baseline, ", int b", "")
        messages = [d.message for d in diagnostics]
        assert "'b' undeclared" in messages
        assert "call of 'add' with 2 argument(s), expected 1" in messages

    def test_changed_macro_arity(self, baseline):
        diagnostics, _ = self.resumed(baseline, "(a, b)", "(a)")
        assert [d.message for d in diagnostics] == [
            "'b' undeclared in macro 'PAIR'",
            "macro 'PAIR' takes 1 argument(s), got 2"]

    def test_renamed_function_changes_the_defined_set(self, baseline):
        _, defined = self.resumed(baseline, "twice(int", "thrice(int")
        assert "thrice" in defined and "twice" not in defined

    def test_inserted_newline_shifts_later_diagnostic_lines(
            self, baseline):
        text = C_FRAGMENT.replace("return BASE;", "return BASF;")
        tokens = tuple(tokenize_c(text))
        base = check_c(text, *self.environment, tokens=tokens)
        assert [d.line for d in base.diagnostics] == [13]
        edit_text, offset, removed, inserted = edited(text, "{\n", "{\n\n")
        assert assert_c_resumes_exactly(base, self.environment, tokens,
                                        edit_text, offset, removed,
                                        inserted)
        assert [d.line for d in check_c(
            edit_text, *self.environment).diagnostics] == [14]

    def test_later_diagnostics_come_from_the_baseline(self):
        text = C_FRAGMENT.replace("return BASE;", "return BASF;")
        tokens = tuple(tokenize_c(text))
        base = check_c(text, *self.environment, tokens=tokens)
        edit_text, offset, removed, inserted = edited(text, "0x80", "0x8")
        new, first, reuse = splice_c(tokens, edit_text, offset, removed,
                                     inserted)
        resumed = check_c(edit_text, *self.environment, tokens=new,
                          baseline=base, span=(first, reuse))
        assert resumed.diagnostics[-1] is base.diagnostics[-1]
        assert resumed == check_c(edit_text, *self.environment)

    def test_deleted_semicolon(self, baseline):
        message = self.resumed(baseline, "0x80);", "0x80)")
        assert "expected ';'" in message

    def test_edit_in_the_first_token(self, baseline):
        self.resumed(baseline, "#define BASE", "#define BASE2")


_SHIPPED = {"Devil": [], "C": []}
for _target_id in target_ids():
    _language = "Devil" if _target_id.endswith("/devil") else "C"
    _SHIPPED[_language].append(_target_id)

_INSERTS = st.lists(st.sampled_from(
    [";", "{", "}", "(", ")", ",", "\n", "#define ", "#define X ", " ",
     "a", "b1", "0", "1", "=", "'0'", "@", ":", "*", "/*", "*/", "type ",
     "variable ", "int "]), max_size=4).map("".join)


@st.composite
def shipped_edits(draw, language):
    """One region of a shipped spec or fragment replaced by a few
    structural characters."""
    target = get_target(draw(st.sampled_from(_SHIPPED[language])))
    source = target.source
    offset = draw(st.integers(0, len(source)))
    removed = draw(st.integers(0, min(16, len(source) - offset)))
    inserted = draw(_INSERTS)
    text = source[:offset] + inserted + source[offset + removed:]
    return target, text, offset, removed, len(inserted)


class TestAnyEditOfShippedPrograms:
    @settings(max_examples=200, deadline=None)
    @given(shipped_edits("Devil"))
    def test_devil(self, edit):
        target, text, offset, removed, inserted = edit
        assume(assert_devil_resumes_exactly(target.baseline, target.tokens,
                                            text, offset, removed,
                                            inserted))

    @settings(max_examples=200, deadline=None)
    @given(shipped_edits("C"))
    def test_c(self, edit):
        target, text, offset, removed, inserted = edit
        environment = c_environment(
            f"{target.name}/{target.language.lower()}")
        assume(assert_c_resumes_exactly(target.baseline, environment,
                                        target.tokens, text, offset,
                                        removed, inserted))


@pytest.mark.parametrize("target_id", ["busmouse/devil", "busmouse/c",
                                       "busmouse/cdevil"])
def test_classifying_every_mutant_leaves_the_baseline_unchanged(target_id):
    target = get_target(target_id)
    before = copy.deepcopy(target.baseline)
    caps = MutantCaps.quick(8)
    for site in target.sites:
        for mutant in mutants_for_site(site, caps.for_kind(site.kind)):
            target.classify(mutant.apply(target.source), mutant)
    assert target.baseline == before
    if target.language == "Devil":
        assert target.baseline.checked is not None
        assert target.baseline == outline_spec(target.source)
    else:
        assert target.baseline.checkpoints == before.checkpoints
        fresh = check_c(target.source, *c_environment(target_id))
        assert target.baseline == fresh
        assert target.baseline.checkpoints == fresh.checkpoints
