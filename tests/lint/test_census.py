"""Every rule has a census row: a rule cannot be added or kept without
the mutant census (``tests/lint/census.py``) having measured it. Runs
no mutants — it only reads the committed table."""

import re

from repro.lint import DEEP_RULES

from .census import BEGIN, DOC, END


def test_census_table_lists_exactly_the_deep_rules():
    section = DOC.read_text().split(BEGIN, 1)[1].split(END, 1)[0]
    ids = re.findall(r"^\| (REPRO\d{3}) \|", section, re.MULTILINE)
    assert ids == [rule.rule_id for rule in DEEP_RULES]
