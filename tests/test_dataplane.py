"""Tests for the dataplane framework: packets, state isolation, pipelines, config, driver."""

import pytest

from repro.dataplane import (
    ELEMENT_REGISTRY,
    DataplaneError,
    Packet,
    PacketOwnershipError,
    Pipeline,
    PipelineConfigurationError,
    PipelineDriver,
    StateIsolationError,
    parse_click_config,
    split_config_args,
)
from repro.dataplane.elements import (
    CheckIPHeader,
    Classifier,
    Counter,
    DecIPTTL,
    Discard,
    EthDecap,
    EthEncap,
    IPLookup,
    IPOptions,
    PassThrough,
    Strip,
)
from repro.dataplane.state import ElementState, ExactMatchTable, LpmTable, StaticExactTable
from repro.workloads import PacketWorkload, well_formed_ip_packet


class TestPacketOwnership:
    def test_owner_can_access(self):
        owner = object()
        packet = Packet(b"abc", owner=owner)
        assert bytes(packet.data(owner)) == b"abc"
        packet.metadata(owner)["x"] = 1

    def test_non_owner_cannot_access(self):
        owner, intruder = object(), object()
        packet = Packet(b"abc", owner=owner)
        with pytest.raises(PacketOwnershipError):
            packet.data(intruder)
        with pytest.raises(PacketOwnershipError):
            packet.metadata(intruder)

    def test_transfer_revokes_previous_owner(self):
        first, second = object(), object()
        packet = Packet(b"abc", owner=first)
        packet.transfer(first, second)
        with pytest.raises(PacketOwnershipError):
            packet.data(first)
        assert bytes(packet.data(second)) == b"abc"

    def test_only_owner_may_transfer(self):
        first, second, thief = object(), object(), object()
        packet = Packet(b"abc", owner=first)
        with pytest.raises(PacketOwnershipError):
            packet.transfer(thief, second)

    def test_killed_packet_is_inaccessible(self):
        owner = object()
        packet = Packet(b"abc", owner=owner)
        packet.kill(owner)
        assert not packet.alive
        with pytest.raises(PacketOwnershipError):
            packet.data(owner)

    def test_acquire_unowned(self):
        packet = Packet(b"abc")
        owner = object()
        packet.acquire(owner)
        with pytest.raises(PacketOwnershipError):
            packet.acquire(object())

    def test_clone_is_unowned(self):
        owner = object()
        packet = Packet(b"abc", {"m": 1}, owner=owner)
        clone = packet.clone()
        assert clone.owner is None
        clone.acquire(object())


class TestState:
    def test_exact_match_table(self):
        table = ExactMatchTable()
        assert table.read(1) == (0, False)
        table.write(1, 42)
        assert table.read(1) == (42, True)

    def test_exact_match_capacity_eviction(self):
        table = ExactMatchTable(capacity=2)
        table.write(1, 1)
        table.write(2, 2)
        table.write(3, 3)
        assert len(table) == 2
        assert table.read(1) == (0, False)  # oldest evicted
        assert table.read(3) == (3, True)

    def test_exact_match_refuses_a_capacity_that_holds_nothing(self):
        # A full table evicts its oldest entry before an insert; one that
        # holds nothing has none to evict, so it is refused when built.
        for capacity in (0, -1):
            with pytest.raises(DataplaneError):
                ExactMatchTable(capacity=capacity)
        smallest = ExactMatchTable(capacity=1)
        smallest.write(1, 1)
        smallest.write(2, 2)
        assert len(smallest) == 1 and smallest.read(2) == (2, True)

    def test_static_table_rejects_writes(self):
        table = StaticExactTable({1: 2})
        assert table.read(1) == (2, True)
        with pytest.raises(StateIsolationError):
            table.write(1, 3)

    def test_lpm_table_adapter(self):
        table = LpmTable()
        table.add_route("10.0.0.0/8", 3)
        assert table.read(0x0A000001) == (3, True)
        assert table.read(0x0B000001) == (0, False)
        with pytest.raises(StateIsolationError):
            table.write(0, 0)

    def test_element_state_dispatch_and_isolation(self):
        state = ElementState()
        state.add_table("private", ExactMatchTable())
        state.add_table("static", StaticExactTable({5: 6}))
        state.table_write("private", 1, 2)
        assert state.table_read("private", 1) == (2, True)
        assert state.table_read("static", 5) == (6, True)
        with pytest.raises(StateIsolationError):
            state.table_write("static", 5, 7)
        with pytest.raises(StateIsolationError):
            state.table("missing")
        with pytest.raises(StateIsolationError):
            state.add_table("private", ExactMatchTable())


class TestPipeline:
    def test_chain_and_routing(self):
        a, b, c = PassThrough(name="a"), PassThrough(name="b"), Discard(name="c")
        pipeline = Pipeline.chain([a, b, c], name="chain")
        assert pipeline.downstream(a, 0) == (b, 0)
        assert pipeline.downstream(b, 0) == (c, 0)
        assert pipeline.downstream(c, 0) is None
        assert pipeline.entry_elements() == [a]

    def test_duplicate_port_connection_rejected(self):
        a, b, c = PassThrough(name="a"), PassThrough(name="b"), PassThrough(name="c")
        pipeline = Pipeline()
        pipeline.connect(a, b)
        with pytest.raises(PipelineConfigurationError):
            pipeline.connect(a, c)

    def test_invalid_port_rejected(self):
        a, b = PassThrough(name="a"), PassThrough(name="b")
        with pytest.raises(PipelineConfigurationError):
            Pipeline().connect(a, b, source_port=5)

    def test_cycle_detected(self):
        a, b = PassThrough(name="a"), PassThrough(name="b")
        pipeline = Pipeline()
        pipeline.connect(a, b)
        pipeline.connect(b, a)
        with pytest.raises(PipelineConfigurationError):
            pipeline.validate()

    def test_long_chain_validates(self):
        # Longer than the interpreter's default recursion limit of 1,000.
        chain = Pipeline.chain([PassThrough(name=f"e{index}") for index in range(1100)])
        chain.validate()
        assert chain.sole_entry() is chain.elements[0]

    def test_connect_after_validation_is_checked_again(self):
        a, b, c = PassThrough(name="a"), PassThrough(name="b"), PassThrough(name="c")
        pipeline = Pipeline.chain([a, b, c])
        pipeline.validate()
        pipeline.connect(c, a)
        for _ in range(2):  # a failure is never remembered
            with pytest.raises(PipelineConfigurationError, match="a -> b -> c -> a"):
                pipeline.validate()

    def test_sole_entry_follows_the_graph(self):
        a, b, sink = PassThrough(name="a"), PassThrough(name="b"), Discard(name="sink")
        pipeline = Pipeline()
        pipeline.connect(a, sink)
        assert pipeline.sole_entry() is a
        pipeline.add_element(b)
        assert pipeline.sole_entry() is None
        pipeline.connect(b, a)
        assert pipeline.sole_entry() is b

    def test_element_paths_enumeration(self):
        classifier = Classifier(["12/0800", "-"], name="cls")
        left, right = Discard(name="left"), Discard(name="right")
        pipeline = Pipeline()
        pipeline.connect(classifier, left, source_port=0)
        pipeline.connect(classifier, right, source_port=1)
        paths = pipeline.element_paths()
        assert len(paths) == 2

    def test_duplicate_names_rejected(self):
        pipeline = Pipeline()
        pipeline.add_element(PassThrough(name="same"))
        with pytest.raises(PipelineConfigurationError):
            pipeline.add_element(PassThrough(name="same"))


class TestConfigParser:
    def test_declarations_and_connections(self):
        pipeline = parse_click_config(
            """
            // the classic front end
            cls :: Classifier(12/0800, -);
            chk :: CheckIPHeader();
            cls[0] -> EthDecap() -> chk -> Discard();
            cls[1] -> Discard();
            """
        )
        pipeline.validate()
        assert len(pipeline.elements) == 5
        assert pipeline.element("cls").num_output_ports == 2

    def test_config_args_splitting(self):
        assert split_config_args("a, b, c") == ["a", "b", "c"]
        assert split_config_args("10.0.0.0/8 0, 0.0.0.0/0 1") == ["10.0.0.0/8 0", "0.0.0.0/0 1"]
        assert split_config_args("") == []

    def test_unknown_element_rejected(self):
        from repro.dataplane import UnknownElementError

        with pytest.raises(UnknownElementError):
            parse_click_config("x :: NoSuchElement();")

    def test_registry_contains_standard_elements(self):
        for name in ("Classifier", "CheckIPHeader", "IPLookup", "DecIPTTL", "IPOptions",
                     "EtherEncap", "Strip", "Discard", "Counter", "NetFlow", "NAT"):
            assert name in ELEMENT_REGISTRY

    def test_parsed_pipeline_runs_packets(self):
        pipeline = parse_click_config(
            """
            chk :: CheckIPHeader();
            rt :: IPLookup(0.0.0.0/0 0);
            chk -> rt -> DecIPTTL() -> Discard();
            """
        )
        driver = PipelineDriver(pipeline)
        trace = driver.inject(well_formed_ip_packet(), entry=pipeline.element("chk"))
        assert trace.final_outcome == "drop"  # ends in Discard
        assert [hop.element_name for hop in trace.hops][:3] == ["chk", "rt"] + [trace.hops[2].element_name]


class TestDriver:
    def build_router(self):
        elements = [
            CheckIPHeader(name="chk"),
            IPLookup([("10.0.0.0/8", 0), ("0.0.0.0/0", 1)], name="rt"),
            DecIPTTL(name="ttl"),
            IPOptions(name="opts"),
        ]
        return Pipeline.chain(elements, name="router"), elements

    def test_delivery_and_statistics(self):
        pipeline, _elements = self.build_router()
        driver = PipelineDriver(pipeline)
        trace = driver.inject(well_formed_ip_packet(dst="10.1.2.3"))
        assert trace.delivered and trace.egress_element == "opts"
        assert trace.total_instructions > 0
        assert driver.statistics.packets_delivered == 1

    def test_malformed_packets_do_not_crash_the_router(self):
        pipeline, _elements = self.build_router()
        driver = PipelineDriver(pipeline)
        for packet in PacketWorkload(valid=20, malformed=20, random_blobs=20, seed=3):
            driver.inject(packet)
        assert driver.statistics.packets_crashed == 0
        assert driver.statistics.packets_in == 60

    def test_ttl_decrement_and_checksum_stay_valid(self):
        from repro.net import verify_checksum

        pipeline, _elements = self.build_router()
        driver = PipelineDriver(pipeline)
        trace = driver.inject(well_formed_ip_packet(dst="10.9.9.9", ttl=33))
        assert trace.delivered
        assert trace.output_data[8] == 32
        assert verify_checksum(trace.output_data[:20])

    def test_counter_element_counts(self):
        counter = Counter(name="count")
        pipeline = Pipeline.chain([counter, Discard(name="sink")])
        driver = PipelineDriver(pipeline)
        for _ in range(5):
            driver.inject(b"\x00" * 40)
        assert counter.packet_count == 5
        assert counter.byte_count == 200

    def test_ethernet_wrapping_roundtrip(self):
        pipeline = Pipeline.chain(
            [EthDecap(name="decap"), Strip(nbytes=1, name="strip"), EthEncap(name="encap")]
        )
        driver = PipelineDriver(pipeline)
        frame = b"\xff" * 14 + b"Zpayload"
        trace = driver.inject(frame)
        assert trace.delivered
        assert trace.output_data.endswith(b"payload")
        assert len(trace.output_data) == 14 + len(b"payload")

    def test_multiple_entry_points_require_explicit_entry(self):
        a, b, sink = PassThrough(name="a"), PassThrough(name="b"), Discard(name="sink")
        pipeline = Pipeline()
        pipeline.connect(a, sink)
        pipeline.connect(b, sink)
        driver = PipelineDriver(pipeline)
        with pytest.raises(PipelineConfigurationError):
            driver.inject(b"x")
        assert driver.inject(b"x", entry=a).final_outcome == "drop"
