"""Unit tests for the placement policies behind ``select_node``."""

import pytest

from repro.cluster import Cluster, Host
from repro.config import default_parameters
from repro.errors import NoHostAvailableError, PlatformError
from repro.platforms.scheduler import (POLICY_HASH, POLICY_LEAST_LOADED,
                                       POLICY_ROUND_ROBIN, select_node)
from repro.sim import Simulation
from tests.helpers import StubNode


def _nodes(count, capacity=16):
    return [StubNode(node_id=index, capacity=capacity)
            for index in range(count)]


def _pick(nodes, policy, function="fn", cursor=0):
    """One placement that also claims the slot, as ``Cluster.place`` does;
    returns ``(node, new_cursor)``."""
    node, cursor = select_node(nodes, policy, function, cursor)
    node.assign(function)
    return node, cursor


class TestInvokerNode:
    """The node side of placement: slot accounting on a real ``Host``."""

    def test_assign_release_cycle(self):
        host = Host(Simulation(), default_parameters(), capacity=2)
        host.assign("fn")
        assert host.active == 1
        assert host.per_function["fn"] == 1
        host.release()
        assert host.active == 0

    def test_over_capacity_raises(self):
        host = Host(Simulation(), default_parameters(), capacity=1)
        host.assign("fn")
        with pytest.raises(PlatformError):
            host.assign("fn")

    def test_release_below_zero_raises(self):
        with pytest.raises(PlatformError):
            Host(Simulation(), default_parameters()).release()


class TestPoolConstruction:
    def test_needs_nodes(self):
        with pytest.raises(PlatformError):
            select_node([], POLICY_HASH, "fn")

    def test_unknown_policy_rejected(self):
        with pytest.raises(PlatformError):
            select_node(_nodes(2), "random-ish", "fn")


class TestRoundRobin:
    def test_cycles_through_nodes(self):
        nodes, cursor, picks = _nodes(3), 0, []
        for _ in range(6):
            node, cursor = select_node(nodes, POLICY_ROUND_ROBIN, "fn",
                                       cursor)
            picks.append(node.node_id)
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_full_nodes(self):
        nodes = _nodes(2, capacity=1)
        first, cursor = _pick(nodes, POLICY_ROUND_ROBIN)
        second, cursor = _pick(nodes, POLICY_ROUND_ROBIN, cursor=cursor)
        assert {first.node_id, second.node_id} == {0, 1}
        with pytest.raises(NoHostAvailableError, match="capacity"):
            select_node(nodes, POLICY_ROUND_ROBIN, "fn", cursor)


class TestLeastLoaded:
    def test_prefers_idle_node(self):
        nodes = _nodes(3)
        a, _ = _pick(nodes, POLICY_LEAST_LOADED)
        b, _ = _pick(nodes, POLICY_LEAST_LOADED)
        assert a.node_id != b.node_id
        a.active -= 1
        c, _ = _pick(nodes, POLICY_LEAST_LOADED)
        assert c.node_id == a.node_id  # back to the now-idle node

    def test_all_full_raises(self):
        nodes = _nodes(1, capacity=1)
        _pick(nodes, POLICY_LEAST_LOADED)
        with pytest.raises(NoHostAvailableError):
            select_node(nodes, POLICY_LEAST_LOADED, "fn")


class TestHash:
    def test_same_function_same_home(self):
        nodes = _nodes(4)
        homes = {_pick(nodes, POLICY_HASH, "my-fn")[0].node_id
                 for _ in range(5)}
        assert len(homes) == 1

    def test_different_functions_spread(self):
        nodes = _nodes(4)
        homes = {select_node(nodes, POLICY_HASH, f"fn-{i}")[0].node_id
                 for i in range(40)}
        assert len(homes) > 1

    def test_overflow_probes_next_node(self):
        nodes = _nodes(2, capacity=1)
        first, _ = _pick(nodes, POLICY_HASH)
        second, _ = _pick(nodes, POLICY_HASH)
        assert second.node_id == (first.node_id + 1) % 2

    def test_deterministic_home(self):
        a, _ = select_node(_nodes(4), POLICY_HASH, "fn")
        b, _ = select_node(_nodes(4), POLICY_HASH, "fn")
        assert a.node_id == b.node_id


class TestStats:
    """Cluster-wide counters over the hosts ``select_node`` placed on."""

    def _cluster(self):
        return Cluster(Simulation(), default_parameters(), n_hosts=2,
                       policy=POLICY_ROUND_ROBIN)

    def test_total_active(self):
        cluster = self._cluster()
        cluster.place("a")
        cluster.place("b")
        assert cluster.total_active() == 2

    def test_load_spread(self):
        cluster = self._cluster()
        cluster.finish(cluster.place("a"))
        cluster.finish(cluster.place("b"))
        assert cluster.load_spread() <= 2
