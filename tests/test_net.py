"""Unit and property-based tests for the networking substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    DirectIndexLPM,
    EthernetAddress,
    EthernetHeader,
    IPv4Address,
    IPv4Header,
    IPv4Prefix,
    TCPHeader,
    TrieLPM,
    UDPHeader,
    build_ethernet_frame,
    build_ipv4_packet,
    build_udp_datagram,
    internet_checksum,
    parse_classifier_pattern,
    verify_checksum,
)
from repro.net.addresses import AddressError
from repro.net.checksum import incremental_update, ones_complement_sum
from repro.dataplane.state import LpmTable
from repro.net.lpm import build_table
from repro.net.rules import RuleError, parse_classifier_config, parse_classifier_rule


class TestAddresses:
    def test_ipv4_roundtrip(self):
        address = IPv4Address("192.168.1.10")
        assert int(address) == 0xC0A8010A
        assert str(address) == "192.168.1.10"
        assert bytes(address) == b"\xc0\xa8\x01\x0a"
        assert IPv4Address(bytes(address)) == address
        assert IPv4Address(int(address)) == address

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", -1, 2**32])
    def test_ipv4_invalid(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_ipv4_classification(self):
        assert IPv4Address("224.0.0.1").is_multicast()
        assert IPv4Address("127.0.0.1").is_loopback()
        assert IPv4Address("255.255.255.255").is_broadcast()
        assert not IPv4Address("10.0.0.1").is_multicast()

    def test_prefix_contains(self):
        prefix = IPv4Prefix("10.1.0.0/16")
        assert prefix.contains("10.1.200.3")
        assert not prefix.contains("10.2.0.1")
        assert prefix.mask() == 0xFFFF0000
        assert IPv4Prefix("0.0.0.0/0").contains("8.8.8.8")

    def test_prefix_normalises_host_bits(self):
        prefix = IPv4Prefix("10.1.2.3/16")
        assert str(prefix) == "10.1.0.0/16"

    def test_ethernet_roundtrip(self):
        mac = EthernetAddress("aa:bb:cc:dd:ee:ff")
        assert int(mac) == 0xAABBCCDDEEFF
        assert str(mac) == "aa:bb:cc:dd:ee:ff"
        assert EthernetAddress(bytes(mac)) == mac
        assert EthernetAddress("ff:ff:ff:ff:ff:ff").is_broadcast()
        assert EthernetAddress("01:00:5e:00:00:01").is_multicast()


class TestChecksum:
    def test_known_value(self):
        # Example header from RFC 1071 discussions.
        data = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
        assert verify_checksum(data)

    def test_checksum_roundtrip(self):
        header = bytearray(build_ipv4_packet("1.2.3.4", "5.6.7.8")[:20])
        assert verify_checksum(bytes(header))
        header[8] = 0  # corrupt a byte
        assert not verify_checksum(bytes(header))

    def test_odd_length(self):
        assert internet_checksum(b"\x01\x02\x03") == internet_checksum(b"\x01\x02\x03\x00")

    def test_incremental_update_matches_full_recompute(self):
        packet = bytearray(build_ipv4_packet("10.0.0.1", "10.0.0.2", ttl=64)[:20])
        old_checksum = int.from_bytes(packet[10:12], "big")
        old_word = int.from_bytes(packet[8:10], "big")
        packet[8] -= 1  # decrement TTL
        new_word = int.from_bytes(packet[8:10], "big")
        patched = incremental_update(old_checksum, old_word, new_word)
        packet[10:12] = b"\x00\x00"
        assert patched == internet_checksum(bytes(packet))

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=128))
    def test_checksum_verification_property(self, payload):
        if len(payload) % 2:
            payload += b"\x00"  # keep the checksum field 16-bit aligned
        header = bytearray(payload + b"\x00\x00")
        checksum = internet_checksum(bytes(header))
        header[-2:] = checksum.to_bytes(2, "big")
        assert verify_checksum(bytes(header))

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=2, max_size=64))
    def test_ones_complement_sum_commutes_with_split(self, data):
        if len(data) % 2:
            data += b"\x00"
        half = (len(data) // 4) * 2
        combined = ones_complement_sum(data[half:], ones_complement_sum(data[:half]))
        assert combined == ones_complement_sum(data)


class TestHeaders:
    def test_ethernet_roundtrip(self):
        header = EthernetHeader(
            dst=EthernetAddress("ff:ff:ff:ff:ff:ff"), src=EthernetAddress(1), ethertype=0x0800
        )
        assert EthernetHeader.unpack(header.pack()) == header

    def test_ipv4_roundtrip(self):
        packet = build_ipv4_packet("10.0.0.1", "10.0.0.2", b"hello", ttl=7,
                                   options=bytes([1, 1, 1, 1]))
        parsed = IPv4Header.unpack(packet)
        assert parsed.src == IPv4Address("10.0.0.1")
        assert parsed.dst == IPv4Address("10.0.0.2")
        assert parsed.ttl == 7
        assert parsed.ihl == 6
        assert parsed.total_length == 24 + 5  # 24-byte header (with options) + payload

    def test_ipv4_header_checksum_valid(self):
        packet = build_ipv4_packet("1.1.1.1", "2.2.2.2", b"x" * 10)
        assert verify_checksum(packet[:20])

    def test_ipv4_unpack_rejects_garbage(self):
        with pytest.raises(Exception):
            IPv4Header.unpack(b"\x00" * 10)
        with pytest.raises(Exception):
            IPv4Header.unpack(b"\x60" + b"\x00" * 19)  # version 6

    def test_udp_roundtrip(self):
        datagram = build_udp_datagram(1234, 53, b"query")
        parsed = UDPHeader.unpack(datagram)
        assert parsed.src_port == 1234
        assert parsed.dst_port == 53
        assert parsed.length == 8 + 5

    def test_tcp_roundtrip(self):
        segment = TCPHeader(src_port=80, dst_port=4000, sequence=99, flags=0x12).pack(b"data")
        parsed = TCPHeader.unpack(segment)
        assert parsed.src_port == 80 and parsed.dst_port == 4000
        assert parsed.sequence == 99 and parsed.flags == 0x12

    def test_ethernet_frame_builder(self):
        frame = build_ethernet_frame("00:00:00:00:00:01", "00:00:00:00:00:02", b"payload")
        assert len(frame) == 14 + 7
        assert int.from_bytes(frame[12:14], "big") == 0x0800


def _route_set(table):
    return sorted(
        (int(entry.prefix.network), entry.prefix.length, entry.port) for entry in table.routes()
    )


class TestLPM:
    @pytest.mark.parametrize("implementation", ["trie", "dir-24-8"])
    def test_longest_prefix_wins(self, implementation):
        table = build_table(
            [("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.1.2.0/24", 3), ("0.0.0.0/0", 0)],
            implementation,
        )
        assert table.lookup("10.1.2.3").port == 3
        assert table.lookup("10.1.9.9").port == 2
        assert table.lookup("10.200.0.1").port == 1
        assert table.lookup("8.8.8.8").port == 0

    @pytest.mark.parametrize("implementation", ["trie", "dir-24-8"])
    def test_miss_without_default(self, implementation):
        table = build_table([("192.168.0.0/16", 1)], implementation)
        assert table.lookup("10.0.0.1") is None

    def test_host_routes(self):
        table = TrieLPM()
        table.add_route("10.0.0.1/32", 7)
        table.add_route("10.0.0.0/24", 1)
        assert table.lookup("10.0.0.1").port == 7
        assert table.lookup("10.0.0.2").port == 1

    def test_direct_index_long_prefixes(self):
        table = DirectIndexLPM()
        table.add_route("10.0.0.0/24", 1)
        table.add_route("10.0.0.128/25", 2)
        table.add_route("10.0.0.129/32", 3)
        assert table.lookup("10.0.0.1").port == 1
        assert table.lookup("10.0.0.200").port == 2
        assert table.lookup("10.0.0.129").port == 3

    def test_short_prefix_added_after_long(self):
        table = DirectIndexLPM()
        table.add_route("10.0.0.128/25", 2)
        table.add_route("10.0.0.0/8", 1)
        assert table.lookup("10.0.0.200").port == 2
        assert table.lookup("10.0.0.1").port == 1

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32), st.integers(0, 7)),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_trie_and_direct_index_agree(self, routes, probe):
        trie, direct = TrieLPM(), DirectIndexLPM()
        for address, length, port in routes:
            prefix = f"{IPv4Address(address)}/{length}"
            trie.add_route(prefix, port)
            direct.add_route(prefix, port)
        trie_hit = trie.lookup(probe)
        direct_hit = direct.lookup(probe)
        assert (trie_hit is None) == (direct_hit is None)
        if trie_hit is not None:
            assert trie_hit.prefix.length == direct_hit.prefix.length
            assert trie_hit.port == direct_hit.port
        # A repeated prefix replaces its route in both, so both list the
        # same routes, and a table's identity does not hang on its class.
        assert len(trie) == len(direct)
        assert _route_set(trie) == _route_set(direct)
        assert LpmTable(trie).fingerprint() == LpmTable(direct).fingerprint()

    @pytest.mark.parametrize("implementation", ["trie", "dir-24-8"])
    def test_repeated_prefix_replaces_its_route(self, implementation):
        # Given 10.0.0.0/8 twice, the later port is the route: lookups,
        # the route list and the fingerprint all say so, so two tables
        # that forward differently never share one identity.
        first = build_table([("10.0.0.0/8", 0), ("10.0.0.0/8", 1)], implementation)
        second = build_table([("10.0.0.0/8", 1), ("10.0.0.0/8", 0)], implementation)
        for table, port in ((first, 1), (second, 0)):
            assert table.lookup("10.1.2.3").port == port
            assert len(table) == 1
            assert [entry.port for entry in table.routes()] == [port]
        assert LpmTable(first).fingerprint() != LpmTable(second).fingerprint()


class TestClassifierRules:
    def test_simple_pattern(self):
        pattern = parse_classifier_pattern("12/0800")
        assert pattern.offset == 12 and pattern.value == b"\x08\x00"
        assert pattern.matches(b"\x00" * 12 + b"\x08\x00")
        assert not pattern.matches(b"\x00" * 12 + b"\x08\x06")
        assert not pattern.matches(b"\x00" * 12)  # too short

    def test_masked_pattern(self):
        pattern = parse_classifier_pattern("0/45%f0")
        assert pattern.matches(b"\x47")
        assert not pattern.matches(b"\x57")

    def test_wildcard_nibbles(self):
        pattern = parse_classifier_pattern("0/4?")
        assert pattern.matches(b"\x45")
        assert pattern.matches(b"\x4f")
        assert not pattern.matches(b"\x54")

    def test_catch_all_rule(self):
        rule = parse_classifier_rule("-", port=3)
        assert rule.is_catch_all()
        assert rule.matches(b"")

    def test_multi_pattern_rule(self):
        rule = parse_classifier_rule("12/0800 23/11", port=0)
        packet = bytearray(32)
        packet[12:14] = b"\x08\x00"
        packet[23] = 0x11
        assert rule.matches(bytes(packet))
        packet[23] = 0x06
        assert not rule.matches(bytes(packet))

    def test_config_parsing(self):
        rules = parse_classifier_config(["12/0800", "12/0806", "-"])
        assert [rule.port for rule in rules] == [0, 1, 2]

    @pytest.mark.parametrize("bad", ["nooffset", "x/08", "0/zz"])
    def test_bad_patterns_rejected(self, bad):
        with pytest.raises(RuleError):
            parse_classifier_pattern(bad)
