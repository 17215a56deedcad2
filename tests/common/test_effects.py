"""The effect-annotation decorators are runtime no-ops with metadata."""

import pytest

from repro.common.effects import (
    RESOURCES,
    mutates,
    policy_decision,
    trap_handler,
)


class TestMutates:
    def test_records_the_resource_and_returns_the_function(self):
        @mutates("shadow_pt")
        def fill():
            return 41

        assert fill.__repro_mutates__ == ("shadow_pt",)
        assert fill() == 41

    def test_stacks_into_a_tuple(self):
        @mutates("shadow_pt")
        @mutates("host_ledger")
        def switch():
            pass

        assert set(switch.__repro_mutates__) == {"shadow_pt", "host_ledger"}
        assert set(switch.__repro_mutates__) <= set(RESOURCES)

    def test_unknown_resource_is_rejected(self):
        with pytest.raises(ValueError):
            @mutates("tlb")
            def bad():
                pass


class TestMarkers:
    def test_trap_handler_marks_and_passes_through(self):
        @trap_handler
        def handle(x):
            return x + 1

        assert handle.__repro_trap_handler__ is True
        assert handle(1) == 2

    def test_policy_decision_marks_and_passes_through(self):
        @policy_decision
        def decide():
            return "shadow"

        assert decide.__repro_policy_decision__ is True
        assert decide() == "shadow"
