"""Every rule has a census row: a rule cannot be added or kept without
the mutant census (``tests/lint/census.py``) having measured it. Runs
no mutants — it reads the committed table and checks that every
mutant still applies to the tree and compiles."""

import re

from repro.lint import DEEP_RULES

from .census import BEGIN, DOC, END, all_mutants, location, source_of


def test_census_table_lists_exactly_the_deep_rules():
    section = DOC.read_text().split(BEGIN, 1)[1].split(END, 1)[0]
    ids = re.findall(r"^\| (REPRO\d{3}) \|", section, re.MULTILINE)
    assert ids == [rule.rule_id for rule in DEEP_RULES]


def test_every_mutant_needle_occurs_exactly_once():
    # A needle the code no longer contains (or contains twice) would
    # make the census plant nothing, or the wrong thing.
    for mutant in all_mutants():
        location(mutant)


def test_every_mutant_compiles():
    # A mutant that is a syntax error fails every oracle at import time,
    # so its row would record an import failure, not the planted bug.
    for mutant in all_mutants():
        mutated = source_of(mutant).replace(mutant.needle, mutant.replacement)
        compile(mutated, mutant.relpath, "exec")
