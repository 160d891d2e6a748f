"""Mutation rules: single-character edits of program tokens.

Per §4.2 of the paper, mutants are produced by *inserting, replacing or
removing one character* of a token — the classes of error the
DeMillo/Mathur study found to be both frequent and long-lived
(typographic and inattention errors).  The rules are identical for
every language in the comparison, which is what makes Table 1 a fair
experiment: the same finger slip is applied to the C driver, the Devil
specification and the stub-using CDevil code.

Each token kind draws its edit characters from an alphabet of the same
class (digits for numbers, letters matching the token's case for
identifiers, operator glyphs for operators, mask characters for Devil
bit patterns): a typo stays within the keyboard neighbourhood of the
token, and — as the paper requires — most resulting programs remain
syntactically valid, pushing the burden of detection onto semantic
checking.

``max_mutants_per_site`` bounds the per-site workload; selection is
deterministic (seeded by the site), so every run of the analysis sees
the same mutant population.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Token-class alphabets for insert/replace edits.
DIGITS = "0123456789"
HEX_DIGITS = "0123456789abcdef"
LOWER = "abcdefghijklmnopqrstuvwxyz_"
UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
OPERATOR_CHARS = "+-*/%<>=!&|^~.@#"
BITPATTERN_CHARS = "01.*-"


@dataclass(frozen=True)
class MutationSite:
    """One mutable token of the target program."""

    kind: str          # "ident", "number", "operator", "bitpattern"
    text: str
    offset: int        # character offset of the token in the source
    line: int

    def key(self) -> str:
        return f"{self.kind}:{self.text}@{self.offset}"


@dataclass(frozen=True)
class Mutant:
    """One single-character edit of one site."""

    site: MutationSite
    mutated_token: str
    description: str

    def apply(self, source: str) -> str:
        """Rewrite the source with the mutated token in place."""
        start = self.site.offset
        end = start + len(self.site.text)
        return source[:start] + self.mutated_token + source[end:]


def alphabet_for(site: MutationSite) -> str:
    """Edit alphabet, matched to the token's character class."""
    if site.kind == "number":
        return HEX_DIGITS if site.text.lower().startswith("0x") else DIGITS
    if site.kind == "ident":
        letters = [c for c in site.text if c.isalpha()]
        if letters and all(c.isupper() for c in letters):
            return UPPER
        return LOWER
    if site.kind == "operator":
        return OPERATOR_CHARS
    if site.kind == "bitpattern":
        return BITPATTERN_CHARS
    raise ValueError(f"unknown site kind {site.kind!r}")


def _edited_tokens(text: str, alphabet: str,
                   protected: int) -> tuple[list[str], list[str], list[str]]:
    """Every removal, insertion and replacement, in a stable order.

    Insertions and replacements take ``len(alphabet)`` slots per index
    (a character replaced by itself gives ``text`` back), so an edit's
    place in its list locates its index and character.
    """
    removals = [text[:index] + text[index + 1:]
                for index in range(protected, len(text))] \
        if len(text) > max(1, protected) else []
    insertions = [text[:index] + char + text[index:]
                  for index in range(protected, len(text) + 1)
                  for char in alphabet]
    replacements = [text[:index] + char + text[index + 1:]
                    for index in range(protected, len(text))
                    for char in alphabet]
    return removals, insertions, replacements


def mutants_for_site(site: MutationSite,
                     max_mutants: int | None = None) -> list[Mutant]:
    """The mutant population of ``site``.

    When ``max_mutants`` is given, a deterministic site-seeded sample of
    that size is drawn (stratified over the full edit enumeration), so
    partial runs measure the same population every time.  Duplicates
    are removed and the sample drawn on the mutated token strings;
    only the kept tokens become :class:`Mutant` objects.
    """
    text = site.text
    alphabet = alphabet_for(site)
    # Number tokens keep their radix prefix intact: mutating '0x' into
    # 'ax' is a lexical error, not a typo class the paper studies.
    protected = 2 if (site.kind == "number"
                      and text.lower().startswith("0x")) else 0
    removals, insertions, replacements = _edited_tokens(text, alphabet,
                                                        protected)
    edits = removals + insertions + replacements
    # Distinct mutated tokens only (different edits can collide, and
    # ``text`` itself is no mutant); the first edit giving a token
    # describes it.
    first = dict(zip(reversed(edits), range(len(edits) - 1, -1, -1)))
    population = [token for token in dict.fromkeys(edits) if token != text]
    if max_mutants is not None and len(population) > max_mutants:
        seed = int.from_bytes(
            hashlib.sha256(site.key().encode()).digest()[:8], "big")
        stride = max(1, len(population) // max_mutants)
        start = seed % stride
        population = population[start::stride][:max_mutants]
    inserts_from = len(removals)
    replaces_from = inserts_from + len(insertions)
    mutants = []
    for token in population:
        position = first[token]
        if position < inserts_from:
            index = protected + position
            description = f"remove {text[index]!r} at {index}"
        elif position < replaces_from:
            index, char = divmod(position - inserts_from, len(alphabet))
            description = f"insert {alphabet[char]!r} at " \
                          f"{protected + index}"
        else:
            index, char = divmod(position - replaces_from, len(alphabet))
            index += protected
            description = f"replace {text[index]!r} with " \
                          f"{alphabet[char]!r} at {index}"
        mutants.append(Mutant(site, token, description))
    return mutants
