"""Unit tests for CellSpec: canonicalization, identity, materialization."""

import pytest

from repro.common.config import PWCConfig
from repro.common.params import FOUR_KB, TWO_MB
from repro.runner import CellSpec, SpecError, canonicalize_overrides, execute_cell

TINY = "repro.runner.testing:TinyWorkload"


class TestCanonicalization:
    def test_override_order_is_irrelevant(self):
        a = CellSpec.make("mcf", overrides={"hw_ad_assist": False,
                                            "pwc.enabled": False})
        b = CellSpec.make("mcf", overrides={"pwc.enabled": False,
                                            "hw_ad_assist": False})
        assert a == b
        assert a.cell_key() == b.cell_key()

    def test_page_size_object_and_name_agree(self):
        assert (CellSpec.make("mcf", page_size=TWO_MB)
                == CellSpec.make("mcf", page_size="2M"))

    def test_dataclass_override_flattens_to_dotted_leaves(self):
        frozen = canonicalize_overrides({"pwc": PWCConfig(enabled=False)})
        assert dict(frozen) == {"pwc.enabled": False,
                                "pwc.entries_per_table": 32}

    def test_nested_dict_override_flattens(self):
        frozen = canonicalize_overrides({"policy": {"write_threshold": 4}})
        assert frozen == (("policy.write_threshold", 4),)

    def test_page_size_override_value_stored_by_name(self):
        frozen = canonicalize_overrides({"host_page_size": FOUR_KB})
        assert frozen == (("host_page_size", "4K"),)

    def test_unsupported_override_type_raises(self):
        with pytest.raises(SpecError):
            canonicalize_overrides({"tlbs": object()})


class TestIdentity:
    def test_key_is_stable_and_content_addressed(self):
        spec = CellSpec.make("mcf", mode="agile", ops=1000, seed=3)
        assert spec.cell_key() == spec.cell_key()
        assert spec.cell_key() != CellSpec.make(
            "mcf", mode="agile", ops=1000, seed=4).cell_key()
        assert spec.cell_key() != CellSpec.make(
            "mcf", mode="shadow", ops=1000, seed=3).cell_key()

    def test_dict_round_trip(self):
        spec = CellSpec.make("dedup", mode="shadow", page_size="2M", ops=500,
                             seed=11, overrides={"pwc.enabled": False},
                             chunk_pages=2)
        assert CellSpec.from_dict(spec.as_dict()) == spec

    def test_validation(self):
        with pytest.raises(SpecError):
            CellSpec.make("mcf", mode="paravirt")
        with pytest.raises(SpecError):
            CellSpec.make("mcf", page_size="8K")
        with pytest.raises(SpecError):
            CellSpec.make("mcf", ops=0)

    def test_describe(self):
        assert CellSpec.make("mcf").describe() == "mcf/agile/4K"
        labelled = CellSpec.make("mcf", seed=3,
                                 overrides={"paranoid": True}).describe()
        assert "s3" in labelled and "ovr" in labelled


class TestBuildConfig:
    def test_dotted_overrides_apply(self):
        config = CellSpec.make(
            "mcf", mode="shadow", page_size="2M",
            overrides={"pwc.enabled": False, "policy.write_threshold": 9,
                       "paranoid": True}).build_config()
        assert config.mode == "shadow"
        assert config.page_size is TWO_MB
        assert config.pwc.enabled is False
        assert config.policy.write_threshold == 9
        assert config.paranoid is True

    def test_page_size_field_override_resolves_name(self):
        config = CellSpec.make(
            "mcf", page_size="2M",
            overrides={"host_page_size": "4K"}).build_config()
        assert config.host_page_size is FOUR_KB

    def test_unknown_field_raises(self):
        with pytest.raises(SpecError):
            CellSpec.make("mcf", overrides={"pwc.entires": 1}).build_config()
        with pytest.raises(SpecError):
            CellSpec.make("mcf", overrides={"typo_field": 1}).build_config()
        # A spec or cache entry that still names a simulation core must
        # fail loudly, not be ignored.
        with pytest.raises(SpecError, match="unknown config field 'core'"):
            CellSpec.make("mcf", overrides={"core": "reference"}).build_config()

    def test_non_nested_field_rejects_dotted_path(self):
        with pytest.raises(SpecError):
            CellSpec.make("mcf",
                          overrides={"paranoid.deep": True}).build_config()

    @pytest.mark.parametrize("overrides, key", [
        ({"cr3_cache_entries": "x"}, "cr3_cache_entries"),
        ({"paranoid": 1}, "paranoid"),
        ({"policy.write_threshold": True}, "policy.write_threshold"),
        ({"pwc.enabled": 0}, "pwc.enabled"),
    ])
    def test_mistyped_value_raises_naming_the_key(self, overrides, key):
        with pytest.raises(SpecError, match=repr(key)):
            CellSpec.make("astar", overrides=overrides).build_config()

    def test_int_is_accepted_for_a_float_field(self):
        config = CellSpec.make(
            "astar", overrides={"policy.miss_rate_threshold": 7}
        ).build_config()
        assert config.policy.miss_rate_threshold == 7

    def test_post_init_failure_raises_naming_the_key(self):
        with pytest.raises(SpecError, match="'mode'"):
            CellSpec.make("astar", overrides={"mode": "bogus"}).build_config()


class TestBuildWorkload:
    def test_suite_lookup_and_cell_seed_threading(self):
        workload = CellSpec.make("mcf", ops=1234, seed=9).build_workload()
        assert workload.name == "mcf"
        assert workload.ops == 1234
        assert workload.seed == 9

    def test_default_seed_is_the_class_default(self):
        workload = CellSpec.make("mcf", ops=100).build_workload()
        assert workload.seed == 47  # McfLike's documented default

    def test_workload_page_size_follows_config(self):
        workload = CellSpec.make("mcf", page_size="2M", ops=100).build_workload()
        assert workload.page_size is TWO_MB

    def test_factory_resolution_and_kwargs(self):
        spec = CellSpec.make("tiny", factory=TINY, ops=50, pages=4)
        workload = spec.build_workload()
        assert type(workload).__name__ == "TinyWorkload"
        assert workload.pages == 4

    def test_workload_class_argument(self):
        from repro.runner.testing import TinyWorkload
        from repro.workloads.suite import McfLike

        by_class = CellSpec.make(McfLike, ops=100)
        assert by_class.workload == "mcf" and by_class.factory is None
        external = CellSpec.make(TinyWorkload, ops=100)
        assert external.factory == TINY

    def test_unknown_workload_raises(self):
        with pytest.raises(SpecError):
            CellSpec.make("doom", ops=100).build_workload()
        with pytest.raises(SpecError):
            CellSpec.make("x", factory="no.such.module:Nope",
                          ops=100).build_workload()


class TestExecuteCell:
    def test_execute_is_deterministic(self):
        spec = CellSpec.make("tiny", factory=TINY, mode="shadow", ops=300,
                             seed=5)
        first = execute_cell(spec)
        second = execute_cell(spec)
        assert first.to_dict() == second.to_dict()
        assert first.mode == "shadow"
        assert first.ops == 300
