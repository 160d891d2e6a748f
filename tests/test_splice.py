"""Token splicing: re-lexing around one edit must equal a full lex.

:func:`repro.devil.lexer.splice` and :func:`repro.minic.lexer.splice_c`
re-lex only from the token before an edit until the token starts line up
with the old ones again, and reuse the rest.  The mutation campaign
classifies every mutant that way, so the spliced list must equal a full
lex of the mutated text (tokens, offsets and locations), or raise the
same error, the span it reports must be exact, and the verdict must not
change.  ``tests/test_resume.py`` covers the parse and check that
resume from the span.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devil.compiler import outline_spec
from repro.devil.errors import DevilLexError
from repro.devil.lexer import splice, tokenize
from repro.minic import check_c
from repro.minic.lexer import CLexError, splice_c, tokenize_c
from repro.mutation.analysis import MutantCaps
from repro.mutation.campaign import (CampaignConfig, evaluate_unit,
                                     generate_units)
from repro.mutation.registry import get_target, target_ids
from repro.mutation.rules import mutants_for_site
from tests.test_resume import (
    assert_c_resumes_exactly,
    assert_devil_resumes_exactly,
    c_environment,
)

LEXERS = {"devil": (tokenize, splice), "c": (tokenize_c, splice_c)}


def _outcome(lex, *args):
    try:
        return lex(*args)
    except (DevilLexError, CLexError) as error:
        return (type(error), str(error))


def _spliced(splice_function, tokens, *edit):
    """The spliced list, after checking the span it reports: the tokens
    before ``first`` are the old ones, and those from ``reuse`` on are
    the old list's last ones (moved along the text)."""
    new, first, reuse = splice_function(tokens, *edit)
    assert 0 <= first <= reuse <= len(new)
    assert new[:first] == list(tokens[:first])
    kept = len(new) - reuse
    assert [(t.kind, t.text) for t in new[reuse:]] == \
        [(t.kind, t.text) for t in tokens[len(tokens) - kept:]]
    return new


def check_edit(language, source, offset, old, new):
    """Splice replacing ``old`` at ``offset`` with ``new``; returns the
    full lex of the edited text after checking the splice equals it."""
    assert source[offset:offset + len(old)] == old
    text = source[:offset] + new + source[offset + len(old):]
    lex, splice_function = LEXERS[language]
    expected = _outcome(lex, text)
    assert _outcome(_spliced, splice_function, tuple(lex(source)), text,
                    offset, len(old), len(new)) == expected
    return expected


def texts(tokens):
    return [token.text for token in tokens[:-1]]


class TestResyncEdgeCases:
    def test_removing_hash_merges_two_tokens(self):
        source = "variable v = a#b, volatile : int(8);"
        tokens = check_edit("devil", source, source.index("#"), "#", "")
        assert "ab" in texts(tokens)

    def test_star_to_comment_runs_past_the_edit(self):
        source = ("register r = base @ 0, pre {x = *} : bit[8];\n"
                  "variable v = r : int(8); /* note */ variable w = r;")
        star = source.index("*")
        tokens = check_edit("devil", source, star, "*", "/*")
        assert texts(tokens) == ["register", "r", "=", "base", "@", "0",
                                 ",", "pre", "{", "x", "=", "variable",
                                 "w", "=", "r", ";"]

    def test_star_to_unterminated_comment(self):
        source = "register r = base @ 0, pre {x = *} : bit[8];"
        error = check_edit("devil", source, source.index("*"), "*", "/*")
        assert error == (DevilLexError,
                         "<devil>:1:33: unterminated block comment")

    def test_arrow_read_to_arrow_both(self):
        source = "variable v = r : { A <= '0', B => '1' };"
        tokens = check_edit("devil", source, source.index("<="), "<=",
                            "<=>")
        assert "<=>" in texts(tokens)

    @pytest.mark.parametrize("new", ["", "fooo", "fo", "f0o"])
    def test_last_token_before_eof(self, new):
        source = "variable v = r;\nfoo"
        check_edit("devil", source, source.index("foo"), "foo", new)

    @pytest.mark.parametrize("new", ["1.*-", "1", "", "1.0.-1"])
    def test_bit_pattern(self, new):
        source = "register r = base @ 0, mask '1..0' : bit[4]; x"
        check_edit("devil", source, source.index("1..0"), "1..0", new)

    def test_columns_shift_on_the_edited_line_only(self):
        source = "a = b; c\nd e"
        tokens = check_edit("devil", source, 4, "b", "bbb")
        assert [(t.text, t.location.line, t.location.column)
                for t in tokens[3:6]] == [(";", 1, 8), ("c", 1, 10),
                                          ("d", 2, 1)]
        assert [t.offset for t in tokens[3:6]] == [7, 9, 11]

    def test_span_of_a_resynced_edit(self):
        source = "a = b; c\nd e"
        text = "a = bbb; c\nd e"
        _, first, reuse = splice(tuple(tokenize(source)), text, 4, 1, 3)
        # Re-lexed from '=' (the token before 'b') to ';', which
        # realigns.
        assert (first, reuse) == (1, 3)

    def test_span_of_an_edit_that_never_realigns(self):
        source = "x = 1;\ny = 2;"
        text = "x = 1;\n\ny = 2;"
        new, first, reuse = splice_c(tuple(tokenize_c(source)), text, 6,
                                     0, 1)
        assert (first, reuse) == (2, len(new))

    def test_edit_in_the_first_token(self):
        check_edit("devil", "device d (p : bit[8] port)", 0, "device",
                   "devices")

    @pytest.mark.parametrize("old,new", [("+", "-"), ("+", "+="),
                                         ("1", "12"), ("F", "")])
    def test_inside_continued_define(self, old, new):
        source = ("#define F(x) \\\n  ((x) + 1)\n"
                  "int y = F(2);\nint z;\n")
        offset = source.index(old, 8)
        tokens = check_edit("c", source, offset, old, new)
        assert tokens[0].kind.name == "DIRECTIVE" and tokens[0].line == 2

    def test_c_dots_merge_across_two_tokens(self):
        # '.' looks two characters ahead: '..' then '.' is '...'.
        source = "a..b"
        tokens = check_edit("c", source, 3, "", ".")
        assert texts(tokens) == ["a", "...", "b"]

    def test_c_division_to_comment(self):
        source = "x = a/b;\ny = 1; /* c */ z = 2;"
        tokens = check_edit("c", source, source.index("b"), "", "*")
        assert texts(tokens) == ["x", "=", "a", "z", "=", "2", ";"]


_DEVIL_TEXT = st.lists(st.sampled_from(
    ["a", "b1", " ", "\n", "=", "#", "*", "/", "<=", ">", ".", "0", "0x",
     "'", "'1-'", "@", ";", "{", "}"]), max_size=16).map("".join)
_C_TEXT = st.lists(st.sampled_from(
    ["a", "b1", " ", "\n", "=", "#", "*", "/", "<", ".", "0", "0x", "'",
     '"', "\\\n", "(", ")", ";", "-", ">"]), max_size=16).map("".join)


def _edits(text_strategy):
    @st.composite
    def edit(draw):
        source = draw(text_strategy)
        offset = draw(st.integers(0, len(source)))
        removed = draw(st.integers(0, len(source) - offset))
        new = draw(text_strategy.map(lambda text: text[:3]))
        return source, offset, source[offset:offset + removed], new
    return edit()


class TestAnyEdit:
    """Splicing is exact for any one-region edit of any lexable text."""

    @settings(max_examples=300, deadline=None)
    @given(_edits(_DEVIL_TEXT))
    def test_devil(self, edit):
        source, offset, old, new = edit
        if isinstance(_outcome(tokenize, source), list):
            check_edit("devil", source, offset, old, new)

    @settings(max_examples=300, deadline=None)
    @given(_edits(_C_TEXT))
    def test_c(self, edit):
        source, offset, old, new = edit
        if isinstance(_outcome(tokenize_c, source), list):
            check_edit("c", source, offset, old, new)


@pytest.fixture(scope="module")
def recorded_campaign():
    """The verdict digests recorded when every campaign mutant was
    compiled from scratch, and the digest function that made them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"
    spec = importlib.util.spec_from_file_location("perfbench_common", path)
    common = sys.modules.setdefault(spec.name,
                                    importlib.util.module_from_spec(spec))
    spec.loader.exec_module(common)
    return common.load_expected("campaign"), common.digest


@pytest.mark.slow
@pytest.mark.parametrize("target_id", target_ids())
def test_every_campaign_mutant_splices_exactly(target_id, tmp_path,
                                               recorded_campaign):
    """Every mutant of every site at the campaign's ``quick(8)`` budget
    splices to exactly its full lex, its parse or check resumed from the
    target's baseline equals a full one (for Devil, so does its check
    resumed from the baseline's recorded check, and a check stopping at
    the first error raises a full check's first error), every site's
    verdict record equals the one recorded from full compiles
    (``perfbench/expected/campaign.json``), and the baseline is left
    as a fresh full parse or check builds it."""
    expected, digest = recorded_campaign
    caps = MutantCaps.quick(expected["caps"])
    target = get_target(target_id)
    devil = target.language == "Devil"
    lex, splice_function = LEXERS["devil" if devil else "c"]
    environment = None if devil else c_environment(target_id)
    for site in target.sites:
        for mutant in mutants_for_site(site, caps.for_kind(site.kind)):
            text = mutant.apply(target.source)
            edit = (text, site.offset, len(site.text),
                    len(mutant.mutated_token))
            assert _outcome(_spliced, splice_function, target.tokens,
                            *edit) == _outcome(lex, text), (site, mutant)
            if devil:
                assert_devil_resumes_exactly(target.baseline,
                                             target.tokens, *edit)
            else:
                assert_c_resumes_exactly(target.baseline, environment,
                                         target.tokens, *edit)
    spec, _, style = target_id.partition("/")
    units = generate_units(CampaignConfig(specs=(spec,), styles=(style,),
                                          caps=caps))
    assert len(units) == len(target.sites)
    for unit in units:
        record = evaluate_unit(unit.token(), str(tmp_path))
        assert digest(record) == \
            expected["digests"][f"{target_id}#{unit.site_index}"], record
    if devil:
        assert target.baseline == outline_spec(target.source)
    else:
        fresh = check_c(target.source, *environment)
        assert target.baseline == fresh
        assert target.baseline.checkpoints == fresh.checkpoints
