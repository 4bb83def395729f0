"""Tests for resource models ρ."""

from __future__ import annotations

import pytest

from repro.errors import ModelError, ValidationError
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_SPARC_STATION_2
from repro.pace.resource import Node, ResourceModel
from tests.oracles import is_homogeneous, resource_platform


class TestNode:
    def test_negative_id_rejected(self):
        with pytest.raises(ModelError):
            Node(-1, SGI_ORIGIN_2000)


class TestResourceModel:
    def test_homogeneous_constructor(self, sgi_resource):
        assert sgi_resource.size == 16
        assert is_homogeneous(sgi_resource)
        assert resource_platform(sgi_resource) is SGI_ORIGIN_2000
        assert [n.node_id for n in sgi_resource.nodes] == list(range(16))

    def test_zero_count_rejected(self):
        with pytest.raises(ModelError):
            ResourceModel.homogeneous("X", SGI_ORIGIN_2000, 0)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            ResourceModel("", [Node(0, SGI_ORIGIN_2000)])

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValidationError):
            ResourceModel("X", [Node(0, SGI_ORIGIN_2000), Node(0, SGI_ORIGIN_2000)])

    def test_node_lookup(self, sgi_resource):
        assert sgi_resource.node(3).node_id == 3
        with pytest.raises(ModelError):
            sgi_resource.node(99)

    def test_subset(self, sgi_resource):
        nodes = sgi_resource.subset([1, 5, 7])
        assert [n.node_id for n in nodes] == [1, 5, 7]

    def test_subset_duplicates_rejected(self, sgi_resource):
        with pytest.raises(ValidationError):
            sgi_resource.subset([1, 1])

    def test_subset_empty_rejected(self, sgi_resource):
        with pytest.raises(ValidationError):
            sgi_resource.subset([])

    def test_heterogeneous_platform_raises(self):
        res = ResourceModel(
            "mix",
            [Node(0, SGI_ORIGIN_2000), Node(1, SUN_SPARC_STATION_2)],
        )
        assert not is_homogeneous(res)
        with pytest.raises(ModelError, match="heterogeneous"):
            _ = resource_platform(res)

    def test_slowest_platform(self):
        res = ResourceModel(
            "mix",
            [Node(0, SGI_ORIGIN_2000), Node(1, SUN_SPARC_STATION_2)],
        )
        assert res.slowest_platform() is SUN_SPARC_STATION_2
        assert res.slowest_platform([0]) is SGI_ORIGIN_2000

    def test_len(self, sgi_resource):
        assert sgi_resource.size == 16
