"""Seeded frame pools for the runtime workloads, and the frame checker.

Built with ``struct`` alone, so a defect in the program's own codecs
cannot hide in the inputs or in the check.  Every frame is
Ethernet/IPv4/UDP with a UDP checksum of zero (legal for IPv4) and a
4-byte little-endian pool index at the start of its payload: the *tag*
that names the input a forwarded frame came from.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["FramePool", "make_pool", "parse_map_lines", "route_iface",
           "check_frame", "frame_tag", "ipv4_checksum_ok", "ipv4_checksum",
           "TAG_OFF", "FLOWS"]

#: Flows per pool; flows alternate between the two routed subnets.
FLOWS = 64

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")
_IP_OFF = _ETH.size                  # 14
_TTL_OFF = _IP_OFF + 8               # 22
_CSUM_OFF = _IP_OFF + 10             # 24
_L4_OFF = _IP_OFF + _IPV4.size       # 34
#: Where the pool-index tag sits: the first payload byte.
TAG_OFF = _L4_OFF + _UDP.size        # 42
HEADERS = TAG_OFF
_TAG = struct.Struct("<I")


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 header checksum of ``header`` (its checksum field zero)."""
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ipv4_checksum_ok(frame) -> bool:
    """True when the IPv4 header of an Ethernet ``frame`` verifies."""
    header = bytes(frame[_IP_OFF:_L4_OFF])
    if len(header) != _IPV4.size:
        return False
    total = sum(struct.unpack("!10H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF


def parse_map_lines(lines: Sequence[str]) -> List[Tuple[int, int, int]]:
    """``route A.B.C.D/len iface N`` lines as ``(net, mask, iface)``,
    longest prefix first."""
    routes = []
    for line in lines:
        words = line.split()
        if len(words) != 4 or words[0] != "route" or words[2] != "iface":
            continue
        addr, plen = words[1].split("/")
        plen = int(plen)
        mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0
        net = int.from_bytes(bytes(int(o) for o in addr.split(".")), "big")
        routes.append((plen, net & mask, mask, int(words[3])))
    routes.sort(reverse=True)
    return [(net, mask, iface) for _plen, net, mask, iface in routes]


def route_iface(routes: Sequence[Tuple[int, int, int]],
                dst: int) -> Optional[int]:
    """Longest-prefix match of ``dst`` over :func:`parse_map_lines`."""
    for net, mask, iface in routes:
        if dst & mask == net:
            return iface
    return None


@dataclass
class FramePool:
    """``frames[i]`` carries tag ``i``; ``ifaces[i]`` is the interface
    the map routes it to."""

    frames: List[bytes]
    ifaces: List[int]
    frame_bytes: int


def _ip(rng: random.Random, second_octet: int) -> int:
    return (10 << 24) | (second_octet << 16) | (rng.randrange(1, 255) << 8) \
        | rng.randrange(1, 255)


def make_pool(seed: int, frame_bytes: int, n_frames: int,
              routes: Sequence[Tuple[int, int, int]]) -> FramePool:
    """``n_frames`` frames of ``frame_bytes`` over :data:`FLOWS` flows.

    Even flows go to 10.2.0.0/16, odd flows to 10.1.0.0/16, so both
    routes of the default map carry traffic.  The seed picks addresses,
    ports, TTLs and payload bytes.
    """
    if frame_bytes < HEADERS + _TAG.size:
        raise ValueError(f"frame_bytes {frame_bytes} below "
                         f"{HEADERS + _TAG.size}")
    rng = random.Random(seed)
    flows = []
    for f in range(FLOWS):
        dst_net, src_net = (2, 1) if f % 2 == 0 else (1, 2)
        flows.append((_ip(rng, src_net), _ip(rng, dst_net),
                      rng.randrange(1024, 65536), rng.randrange(1024, 65536),
                      rng.randrange(16, 256)))
    payload_len = frame_bytes - HEADERS
    body = rng.randbytes(payload_len * 2)
    eth = _ETH.pack(b"\x02\x00\x00\x00\x00\x02", b"\x02\x00\x00\x00\x00\x01",
                    0x0800)
    frames, ifaces = [], []
    for i in range(n_frames):
        src, dst, sport, dport, ttl = flows[i % FLOWS]
        start = rng.randrange(payload_len)
        payload = _TAG.pack(i) + body[start:start + payload_len - _TAG.size]
        udp = _UDP.pack(sport, dport, _UDP.size + payload_len, 0)
        fields = [0x45, 0, _IPV4.size + _UDP.size + payload_len, i & 0xFFFF,
                  0x4000, ttl, 17, 0, src.to_bytes(4, "big"),
                  dst.to_bytes(4, "big")]
        fields[7] = ipv4_checksum(_IPV4.pack(*fields))
        frames.append(eth + _IPV4.pack(*fields) + udp + payload)
        iface = route_iface(routes, dst)
        if iface is None:
            raise ValueError(f"flow {i % FLOWS} has no route")
        ifaces.append(iface)
    return FramePool(frames, ifaces, frame_bytes)


def frame_tag(frame) -> int:
    """The pool index a frame carries (-1 when it is too short)."""
    if len(frame) < TAG_OFF + _TAG.size:
        return -1
    return _TAG.unpack_from(frame, TAG_OFF)[0]


def check_frame(out, iface: int, pool: FramePool) -> Optional[str]:
    """Why forwarded ``out`` (sent on ``iface``) is wrong, or None.

    The tag picks the input; the output must be that input with TTL one
    lower, a valid header checksum, every other byte unchanged, and the
    interface the route map names.
    """
    tag = frame_tag(out)
    if not 0 <= tag < len(pool.frames):
        return "tag"
    inp = pool.frames[tag]
    if len(out) != len(inp):
        return "length"
    if out[_TTL_OFF] != inp[_TTL_OFF] - 1:
        return "ttl"
    if not ipv4_checksum_ok(out):
        return "checksum"
    if out[:_TTL_OFF] != inp[:_TTL_OFF] or \
            out[_TTL_OFF + 1:_CSUM_OFF] != inp[_TTL_OFF + 1:_CSUM_OFF] or \
            out[_CSUM_OFF + 2:_L4_OFF] != inp[_CSUM_OFF + 2:_L4_OFF]:
        return "header"
    if out[_L4_OFF:] != inp[_L4_OFF:]:
        return "payload"
    if iface != pool.ifaces[tag]:
        return "iface"
    return None

