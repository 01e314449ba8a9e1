"""Small-scope safety in tier-1: every target program of up to two
instructions over the alphabet of ``tests/small_scope.py`` is checked,
and each one the checker accepts runs to a value of its type, as the
reference machine runs it."""

import functools

from ftal import machine
from ftal import syntax as S
from small_scope import accepted


@functools.cache
def programs() -> list:
    return accepted(2)


def test_every_accepted_program_of_two_instructions_runs_to_a_value_of_its_type():
    # accepted() asserts the property of each program it enumerates; the
    # count pins which programs the checker accepts.
    assert len(programs()) == 1092


def test_the_accepted_programs_hold_every_target_rule():
    seen = {type(node) for prog in programs() for node, _, _ in S.subterms(prog)}
    assert set(machine.T_RULES) - seen == set()
