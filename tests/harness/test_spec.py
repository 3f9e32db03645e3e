"""Campaign spec loading, validation, and grid expansion."""

import json
from pathlib import Path

import pytest

from repro.harness import CampaignSpec, SpecError, load_spec, spec_from_mapping
from repro.harness.spec import RunDescriptor


class TestExpansion:
    def test_grid_size_is_the_axis_product(self):
        spec = CampaignSpec(
            name="grid",
            families=("tree", "waxman"),
            sizes=(10, 20),
            policies=("shortest_path", "none"),
            seeds=(0, 1, 2),
            churn_events=(0, 2),
            loss=(0.0, 0.05),
            engine=({}, {"max_events": 1_000}),
        )
        descriptors = spec.expand()
        assert spec.run_count == 2 * 2 * 2 * 3 * 2 * 2 * 2
        assert len(descriptors) == spec.run_count
        assert [d.index for d in descriptors] == list(range(spec.run_count))
        assert len({d.run_id for d in descriptors}) == spec.run_count

    def test_expansion_is_deterministic(self):
        def make():
            return CampaignSpec(
                name="det", families=("tree",), sizes=(12,), seeds=(0, 1)
            ).expand()

        assert make() == make()

    def test_none_policy_means_plain_path_vector(self):
        spec = CampaignSpec(name="p", policies=("none", "gao_rexford"))
        policies = {d.policy for d in spec.expand()}
        assert policies == {None, "gao_rexford"}

    def test_descriptor_round_trips_through_json(self):
        descriptor = CampaignSpec(
            name="rt",
            engine=({"expiry_scan_interval": 0.25},),
            soft_state={"link": 5.0},
        ).expand()[0]
        rebuilt = RunDescriptor.from_dict(json.loads(json.dumps(descriptor.to_dict())))
        assert rebuilt == descriptor
        config = rebuilt.engine_config()
        assert config.expiry_scan_interval == 0.25
        assert config.seed == descriptor.seed

    def test_engine_matrix_produces_distinct_configs(self):
        spec = CampaignSpec(
            name="engines", engine=({}, {"max_events": 1_000, "expiry_scan_interval": 0.25})
        )
        configs = [d.engine_config() for d in spec.expand()]
        assert configs[0].max_events == spec.max_events
        assert configs[0].expiry_scan_interval == 1.0
        assert configs[1].max_events == 1_000 and configs[1].expiry_scan_interval == 0.25


class TestValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(SpecError, match="unknown scenario family"):
            CampaignSpec(name="bad", families=("moebius",))

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecError, match="unknown policy"):
            CampaignSpec(name="bad", policies=("tit_for_tat",))

    def test_unknown_monitor_rejected(self):
        with pytest.raises(SpecError, match="unknown monitor"):
            CampaignSpec(name="bad", monitors=("route_validity", "vibes"))

    def test_unknown_engine_field_rejected(self):
        with pytest.raises(SpecError, match="unknown EngineConfig fields"):
            CampaignSpec(name="bad", engine=({"warp_speed": True},))

    def test_removed_execution_mode_fields_rejected(self):
        # the engine has one execution mode and one rule evaluator; specs
        # naming the old switches fail
        for field_name in (
            "batch_deltas",
            "retract_derivations",
            "use_indexes",
            "compile_rules",
            "codegen",
        ):
            with pytest.raises(SpecError, match="unknown EngineConfig fields"):
                CampaignSpec(name="bad", engine=({field_name: False},))

    def test_loss_must_be_probability(self):
        with pytest.raises(SpecError, match="probabilities"):
            CampaignSpec(name="bad", loss=(1.5,))

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            spec_from_mapping({"name": "bad", "colour": "blue"})


class TestDisagreeNeedsATriangle:
    """``disagree`` embeds its gadget on a triangle; whether a run has one is
    read from its generated topology, not from the family name."""

    def spec(self, family, size, seeds=(0,)):
        return CampaignSpec(
            name="d", families=(family,), sizes=(size,), policies=("disagree",), seeds=seeds
        )

    def test_a_tree_is_refused_at_expansion(self):
        spec = self.spec("tree", 10)  # validates: the family name is not the test
        with pytest.raises(SpecError, match="tree-10 \\(seed 0\\) has none"):
            spec.expand()

    def test_the_topology_decides_within_one_family(self):
        assert len(self.spec("ring", 3).expand()) == 1
        with pytest.raises(SpecError, match="ring-4"):
            self.spec("ring", 4).expand()
        # random-5 has a triangle for seed 0 and none for seed 2
        assert len(self.spec("random", 5).expand()) == 1
        with pytest.raises(SpecError, match="random-5 \\(seed 2\\)"):
            self.spec("random", 5, seeds=(0, 2)).expand()

    def test_other_policies_expand_on_trees(self):
        spec = CampaignSpec(name="t", families=("tree",), sizes=(10,), policies=("gao_rexford",))
        assert len(spec.expand()) == 1


class TestLoading:
    def test_toml_and_json_load_identically(self, tmp_path):
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(
            'name = "c"\nfamilies = ["tree"]\nsizes = [12]\n'
            'policies = ["shortest_path"]\nseeds = [0, 1]\nuntil = 5.0\n'
        )
        json_path = tmp_path / "c.json"
        json_path.write_text(
            json.dumps(
                {
                    "name": "c",
                    "families": ["tree"],
                    "sizes": [12],
                    "policies": ["shortest_path"],
                    "seeds": [0, 1],
                    "until": 5.0,
                }
            )
        )
        assert load_spec(toml_path).expand() == load_spec(json_path).expand()

    def test_scalar_axes_are_promoted(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text('name = "s"\nfamilies = "tree"\nsizes = 10\nseeds = 3\n')
        spec = load_spec(path)
        assert spec.families == ("tree",) and spec.sizes == (10,) and spec.seeds == (3,)

    def test_malformed_spec_files_raise_spec_errors(self, tmp_path):
        broken_toml = tmp_path / "broken.toml"
        broken_toml.write_text('name = "x\nfamilies = [')
        with pytest.raises(SpecError, match="malformed spec"):
            load_spec(broken_toml)
        broken_json = tmp_path / "broken.json"
        broken_json.write_text("{not json")
        with pytest.raises(SpecError, match="malformed spec"):
            load_spec(broken_json)
        bad_value = tmp_path / "bad.toml"
        bad_value.write_text('name = "x"\nsizes = ["ten"]\n')
        with pytest.raises(SpecError, match="invalid spec"):
            load_spec(bad_value)

    def test_missing_file_and_bad_suffix(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            load_spec(tmp_path / "nope.toml")
        bad = tmp_path / "spec.yaml"
        bad.write_text("name: x")
        with pytest.raises(SpecError, match="unsupported spec format"):
            load_spec(bad)

    def test_example_smoke_spec_loads(self):
        example = Path(__file__).resolve().parents[2] / "examples" / "campaign_smoke.toml"
        spec = load_spec(example)
        assert spec.name == "campaign-smoke"
        assert spec.run_count >= 8
        assert all(p == "shortest_path" for p in spec.policies)


class TestShardsAxis:
    """The ``shards`` grid axis (merged into engine overrides)."""

    def test_default_axis_preserves_legacy_descriptors(self):
        spec = CampaignSpec(name="x", families=("tree",), sizes=(8,), seeds=(0, 1))
        descriptors = spec.expand()
        assert spec.shards == (1,)
        assert all("sh" not in d.run_id.split("-e")[1] for d in descriptors)
        assert all("shards" not in dict(d.engine) for d in descriptors)

    def test_shards_axis_merges_into_engine_overrides(self):
        spec = spec_from_mapping(
            {"name": "y", "families": ["tree"], "sizes": [8], "seeds": [0],
             "shards": [1, 4], "engine": [{}, {"expiry_scan_interval": 0.5}]}
        )
        descriptors = spec.expand()
        assert spec.run_count == len(descriptors) == 4
        shard_values = sorted(dict(d.engine).get("shards") for d in descriptors)
        assert shard_values == [1, 1, 4, 4]
        assert {d.run_id.split("-")[-2] for d in descriptors} == {"sh1", "sh4"}
        for d in descriptors:
            config = d.engine_config()
            assert config.shards == dict(d.engine)["shards"]

    def test_scalar_shards_becomes_axis(self):
        spec = spec_from_mapping(
            {"name": "z", "families": ["tree"], "sizes": [8], "seeds": [0], "shards": 2}
        )
        assert spec.shards == (2,)
        assert dict(spec.expand()[0].engine)["shards"] == 2

    def test_invalid_shards_rejected(self):
        with pytest.raises(SpecError, match="shards"):
            spec_from_mapping(
                {"name": "w", "families": ["tree"], "sizes": [8], "seeds": [0],
                 "shards": [0]}
            )

    def test_roundtrip_keeps_shards(self):
        spec = spec_from_mapping(
            {"name": "rt", "families": ["tree"], "sizes": [8], "seeds": [0],
             "shards": [1, 2]}
        )
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.shards == (1, 2)
        assert [d.run_id for d in again.expand()] == [d.run_id for d in spec.expand()]
