"""Permutation routing problems (the paper's benchmark, Section 1).

A (partial) permutation sends at most one packet from each node and at most
one packet to each node.  Generators return fresh :class:`Packet` lists;
all randomness flows through an explicit seed or ``numpy`` generator so
every experiment is reproducible.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.mesh.packet import Packet
from repro.mesh.topology import Topology


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def packets_from_mapping(
    mapping: Mapping[tuple[int, ...], tuple[int, ...]]
    | Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
    *,
    check_permutation: bool = True,
) -> list[Packet]:
    """Build packets from explicit (source -> destination) pairs.

    Args:
        mapping: Source/destination pairs.  Sources are sorted before id
            assignment so packet ids are independent of input ordering.
        check_permutation: Verify at most one packet per source and per
            destination (the partial-permutation condition).
    """
    pairs = sorted(mapping.items()) if isinstance(mapping, Mapping) else sorted(mapping)
    if check_permutation:
        sources = [s for s, _ in pairs]
        dests = [d for _, d in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError("not a partial permutation: duplicate source")
        if len(set(dests)) != len(dests):
            raise ValueError("not a partial permutation: duplicate destination")
    return [Packet(pid, src, dst) for pid, (src, dst) in enumerate(pairs)]


def identity_permutation(topology: Topology) -> list[Packet]:
    """Every node sends to itself (all packets delivered at step 0)."""
    return packets_from_mapping({node: node for node in topology.nodes()})


def random_permutation(
    topology: Topology, seed: int | np.random.Generator | None = None
) -> list[Packet]:
    """A uniformly random full permutation of the nodes.

    Packet ``i`` leaves the ``i``-th node in :meth:`Topology.nodes` order,
    which is sorted, so this is :func:`packets_from_mapping` of the same
    pairs without the sort and the permutation check it cannot fail.
    """
    rng = _rng(seed)
    nodes = list(topology.nodes())
    dests = [nodes[i] for i in rng.permutation(len(nodes)).tolist()]
    return list(map(Packet, range(len(nodes)), nodes, dests))


def random_partial_permutation(
    topology: Topology,
    fraction: float,
    seed: int | np.random.Generator | None = None,
) -> list[Packet]:
    """A random partial permutation using roughly ``fraction`` of the nodes."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = _rng(seed)
    nodes = list(topology.nodes())
    m = int(round(fraction * len(nodes)))
    sources = rng.choice(len(nodes), size=m, replace=False)
    dests = rng.choice(len(nodes), size=m, replace=False)
    return packets_from_mapping(
        {nodes[s]: nodes[d] for s, d in zip(sources, dests)}
    )


def transpose_permutation(topology: Topology) -> list[Packet]:
    """The coordinate-reversal permutation: (x, y) -> (y, x) in 2D.

    A classic stress pattern for dimension-order routing: all traffic
    crosses the main diagonal.  In d dimensions the node tuple is reversed,
    which requires every side length to be equal.
    """
    if len(set(topology.shape)) != 1:
        raise ValueError("transpose needs equal side lengths on every axis")
    return packets_from_mapping(
        {node: tuple(reversed(node)) for node in topology.nodes()}
    )


def bit_reversal_permutation(topology: Topology) -> list[Packet]:
    """(x, y) -> (rev(x), rev(y)) where rev reverses the coordinate's bits.

    Defined for power-of-two side lengths, per axis, in any dimension.
    """
    shape = topology.shape
    for side in shape:
        if side & (side - 1):
            raise ValueError("bit reversal needs power-of-two dimensions")
    bits = [side.bit_length() - 1 for side in shape]

    def rev(v: int, nbits: int) -> int:
        out = 0
        for _ in range(nbits):
            out = (out << 1) | (v & 1)
            v >>= 1
        return out

    return packets_from_mapping(
        {
            node: tuple(rev(c, b) for c, b in zip(node, bits))
            for node in topology.nodes()
        }
    )


def rotation_permutation(
    topology: Topology, *shifts: int, dx: int | None = None, dy: int | None = None
) -> list[Packet]:
    """Cyclic shift: one shift per axis, each coordinate mod its side.

    The historical 2D spelling ``rotation_permutation(mesh, dx=3, dy=0)``
    is accepted as an alias for positional ``(dx, dy)``.
    """
    if dx is not None or dy is not None:
        if shifts:
            raise ValueError("pass shifts positionally or as dx/dy, not both")
        shifts = (dx or 0, dy or 0)
    shape = topology.shape
    if len(shifts) != len(shape):
        raise ValueError(
            f"rotation needs one shift per axis ({len(shape)}), got {len(shifts)}"
        )
    return packets_from_mapping(
        {
            node: tuple((c + s) % side for c, s, side in zip(node, shifts, shape))
            for node in topology.nodes()
        }
    )
