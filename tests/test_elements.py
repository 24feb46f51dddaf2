"""Behavioural tests for the standard element library (concrete execution)."""

import pytest

from repro.dataplane import DataplaneError, Pipeline, PipelineDriver, parse_click_config
from repro.dataplane.elements import (
    NAT,
    CheckIPHeader,
    CheckLength,
    Classifier,
    DecIPTTL,
    EthDecap,
    EthEncap,
    EthMirror,
    FilterRule,
    IPFilter,
    IPLookup,
    IPOptions,
    NetFlow,
    Paint,
)
from repro.ir import Interpreter
from repro.net import IPv4Prefix, build_ethernet_frame, build_ipv4_packet, build_udp_datagram
from repro.workloads import well_formed_ip_packet


def run(element, data, metadata=None):
    """Run one element's program on raw bytes (element-level harness)."""
    return Interpreter().run(element.program, data, metadata, element.state)


class TestClassifier:
    def test_matches_route_to_ports(self):
        classifier = Classifier(["12/0800", "12/0806", "-"])
        ipv4 = bytearray(20)
        ipv4[12:14] = b"\x08\x00"
        arp = bytearray(20)
        arp[12:14] = b"\x08\x06"
        other = bytearray(20)
        assert run(classifier, ipv4).port == 0
        assert run(classifier, arp).port == 1
        assert run(classifier, other).port == 2

    def test_short_packet_falls_through(self):
        classifier = Classifier(["12/0800", "-"])
        assert run(classifier, bytes(4)).port == 1

    def test_no_match_without_catchall_drops(self):
        classifier = Classifier(["12/0800"])
        assert run(classifier, bytes(20)).dropped


class TestCheckIPHeader:
    def setup_method(self):
        self.element = CheckIPHeader(verify_checksum=True)

    def test_valid_packet_passes(self):
        result = run(self.element, well_formed_ip_packet())
        assert result.emitted and result.metadata["ip_header_valid"] == 1

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda p: p[:10], "short"),
            (lambda p: bytes([0x65]) + p[1:], "version"),
            (lambda p: bytes([0x43]) + p[1:], "ihl"),
            (lambda p: p[:2] + (5).to_bytes(2, "big") + p[4:], "total length"),
            (lambda p: p[:10] + b"\xde\xad" + p[12:], "checksum"),
        ],
    )
    def test_malformed_packets_dropped(self, mutate, reason):
        packet = mutate(bytearray(well_formed_ip_packet()))
        result = run(self.element, packet)
        assert result.dropped, reason

    def test_checksum_check_can_be_disabled(self):
        packet = bytearray(well_formed_ip_packet())
        packet[10:12] = b"\xde\xad"
        assert run(CheckIPHeader(verify_checksum=False), packet).emitted


class TestDecIPTTL:
    def test_decrements_and_patches_checksum(self):
        from repro.net import verify_checksum

        element = DecIPTTL()
        packet = well_formed_ip_packet(ttl=100)
        result = run(element, packet)
        assert result.emitted and result.data[8] == 99
        assert verify_checksum(result.data[:20])

    @pytest.mark.parametrize("ttl", [0, 1])
    def test_expired_ttl_dropped(self, ttl):
        packet = bytearray(well_formed_ip_packet())
        packet[8] = ttl
        assert run(DecIPTTL(), packet).dropped

    def test_expired_port_variant(self):
        element = DecIPTTL(use_expired_port=True)
        packet = bytearray(well_formed_ip_packet())
        packet[8] = 1
        assert run(element, packet).port == 1

    def test_checksum_carry_case(self):
        from repro.net import verify_checksum

        # Choose a checksum close to 0xFFFF so the incremental update wraps.
        packet = bytearray(well_formed_ip_packet(src="255.255.0.0", dst="0.0.255.254", ttl=2))
        result = run(DecIPTTL(), packet)
        assert result.emitted
        assert verify_checksum(result.data[:20])


class TestIPLookup:
    def test_routes_to_configured_ports(self):
        element = IPLookup([("10.0.0.0/8", 0), ("192.168.0.0/16", 1), ("0.0.0.0/0", 2)])
        assert run(element, well_formed_ip_packet(dst="10.1.1.1")).port == 0
        assert run(element, well_formed_ip_packet(dst="192.168.3.4")).port == 1
        assert run(element, well_formed_ip_packet(dst="8.8.8.8")).port == 2

    def test_no_route_drops(self):
        element = IPLookup([("10.0.0.0/8", 0)])
        assert run(element, well_formed_ip_packet(dst="8.8.8.8")).dropped

    def test_sets_output_port_metadata(self):
        element = IPLookup([("0.0.0.0/0", 0)])
        assert run(element, well_formed_ip_packet()).metadata["output_port"] == 0


class TestIPOptions:
    def test_no_options_fast_path(self):
        assert run(IPOptions(), well_formed_ip_packet()).emitted

    def test_nop_and_eol_options(self):
        packet = well_formed_ip_packet(options=bytes([1, 1, 0, 0]))
        assert run(IPOptions(), packet).emitted

    def test_sized_option(self):
        packet = well_formed_ip_packet(options=bytes([7, 8, 0, 0, 0, 0, 0, 0]))
        assert run(IPOptions(max_options=8), packet).emitted

    def test_option_running_past_header_dropped(self):
        packet = well_formed_ip_packet(options=bytes([7, 12, 0, 0]))
        assert run(IPOptions(), packet).dropped

    def test_option_length_below_two_dropped(self):
        packet = well_formed_ip_packet(options=bytes([7, 1, 0, 0]))
        assert run(IPOptions(), packet).dropped

    def test_trusts_upstream_header_length(self):
        # A packet whose IHL claims options beyond the buffer crashes the
        # element in isolation — the behaviour CheckIPHeader protects against.
        packet = bytearray(well_formed_ip_packet())
        packet[0] = 0x4F  # IHL = 15 (60-byte header) but the packet is shorter
        result = run(IPOptions(max_options=40), packet[:30])
        assert result.crashed


class TestIPFilter:
    def test_allow_and_deny_rules(self):
        element = IPFilter(
            rules=[
                FilterRule(action="deny", src=IPv4Prefix("10.9.0.0/16")),
                FilterRule(action="allow", dst=IPv4Prefix("10.0.0.0/8")),
            ],
            default_allow=False,
        )
        assert run(element, well_formed_ip_packet(src="10.9.1.1", dst="10.0.0.1")).dropped
        assert run(element, well_formed_ip_packet(src="10.8.1.1", dst="10.0.0.1")).emitted
        assert run(element, well_formed_ip_packet(src="10.8.1.1", dst="8.8.8.8")).dropped

    def test_port_rule_only_matches_transport(self):
        element = IPFilter(
            rules=[FilterRule(action="deny", protocol=17, dst_port=53)], default_allow=True
        )
        dns = build_ipv4_packet("1.1.1.1", "2.2.2.2", build_udp_datagram(999, 53, b"q"))
        web = build_ipv4_packet("1.1.1.1", "2.2.2.2", build_udp_datagram(999, 80, b"q"))
        icmp = build_ipv4_packet("1.1.1.1", "2.2.2.2", b"\x08\x00\x00\x00", protocol=1)
        assert run(element, dns).dropped
        assert run(element, web).emitted
        assert run(element, icmp).emitted


class TestStatefulElements:
    def test_netflow_counts_per_flow(self):
        element = NetFlow()
        packet_a = build_ipv4_packet("10.0.0.1", "10.0.0.2", build_udp_datagram(1, 2, b""))
        packet_b = build_ipv4_packet("10.0.0.3", "10.0.0.4", build_udp_datagram(3, 4, b""))
        for expected in (1, 2, 3):
            assert run(element, packet_a).metadata["flow_packets"] == expected
        assert run(element, packet_b).metadata["flow_packets"] == 1
        assert element.flow_count() == 2

    def test_netflow_rejects_a_cache_that_holds_nothing(self):
        # A full flow cache evicts its oldest entry to make room; one that
        # can hold nothing has no entry to evict, so the configuration is
        # refused when it is built, not on the first packet.
        for capacity in (0, -1):
            with pytest.raises(DataplaneError):
                NetFlow(capacity=capacity)
        with pytest.raises(DataplaneError):
            parse_click_config("c :: CheckIPHeader(NOCHECKSUM); nf :: NetFlow(0); c -> nf;")
        smallest = NetFlow(capacity=1)
        for source in ("10.0.0.1", "10.0.0.3"):
            packet = build_ipv4_packet(source, "10.0.0.2", build_udp_datagram(1, 2, b""))
            assert run(smallest, packet).metadata["flow_packets"] == 1
        assert smallest.flow_count() == 1

    def test_nat_rewrites_source_and_allocates_ports(self):
        element = NAT(external_ip="192.0.2.1", port_base=10_000, port_count=100)
        first = build_ipv4_packet("10.0.0.1", "8.8.8.8", build_udp_datagram(5000, 53, b""))
        second = build_ipv4_packet("10.0.0.2", "8.8.8.8", build_udp_datagram(5000, 53, b""))
        result_one = run(element, first)
        result_two = run(element, second)
        result_repeat = run(element, first)
        assert result_one.emitted
        assert bytes(result_one.data[12:16]) == bytes([192, 0, 2, 1])
        port_one = int.from_bytes(result_one.data[20:22], "big")
        port_two = int.from_bytes(result_two.data[20:22], "big")
        assert port_one != port_two
        assert int.from_bytes(result_repeat.data[20:22], "big") == port_one

    def test_nat_pool_exhaustion(self):
        element = NAT(port_count=2)
        packets = [
            build_ipv4_packet(f"10.0.0.{i}", "8.8.8.8", build_udp_datagram(1000 + i, 53, b""))
            for i in range(1, 5)
        ]
        outcomes = [run(element, packet).outcome for packet in packets]
        assert outcomes[:2] == ["emit", "emit"]
        assert "drop" in outcomes[2:]

    def test_nat_passes_non_transport_traffic(self):
        element = NAT()
        icmp = build_ipv4_packet("10.0.0.1", "8.8.8.8", b"\x08\x00\x00\x00", protocol=1)
        result = run(element, icmp)
        assert result.emitted
        assert bytes(result.data[12:16]) == bytes(bytearray([192, 0, 2, 1]))


class TestUtilityElements:
    def test_paint_sets_metadata(self):
        assert run(Paint(color=9), b"x").metadata["paint"] == 9

    def test_checklength(self):
        assert run(CheckLength(max_length=10), bytes(5)).emitted
        assert run(CheckLength(max_length=10), bytes(50)).dropped

    def test_eth_mirror_swaps_addresses(self):
        frame = build_ethernet_frame("00:00:00:00:00:01", "00:00:00:00:00:02", b"x" * 20)
        result = run(EthMirror(), frame)
        assert bytes(result.data[0:6]) == bytes.fromhex("000000000002")
        assert bytes(result.data[6:12]) == bytes.fromhex("000000000001")

    def test_eth_encap_decap_roundtrip(self):
        inner = well_formed_ip_packet()
        pipeline = Pipeline.chain([EthEncap(name="e"), EthDecap(name="d")])
        driver = PipelineDriver(pipeline)
        trace = driver.inject(inner)
        assert trace.delivered and trace.output_data == inner

    def test_click_args_constructors(self):
        classifier = Classifier.from_click_args(["12/0800", "-"])
        assert classifier.num_output_ports == 2
        lookup = IPLookup.from_click_args(["10.0.0.0/8 0", "0.0.0.0/0 1"])
        assert lookup.num_output_ports == 2
        options = IPOptions.from_click_args(["6"])
        assert options.max_options == 6
