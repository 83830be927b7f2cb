"""Compass directions on the mesh.

The paper numbers columns 1..n from west to east and rows 1..n from south to
north (Section 2, "Definitions").  We use 0-indexed coordinates ``(x, y)``
where ``x`` grows eastward and ``y`` grows northward, so moving North adds
``(0, +1)`` and moving East adds ``(+1, 0)``.
"""

from __future__ import annotations

import enum


class Direction(enum.IntEnum):
    """One of the four mesh link directions.

    ``IntEnum`` so directions sort deterministically (N < E < S < W), which
    fixes tie-breaking order everywhere in the simulator.
    """

    N = 0
    E = 1
    S = 2
    W = 3

    @property
    def dx(self) -> int:
        """Change in column index when moving one hop this way."""
        return _DX[self]

    @property
    def dy(self) -> int:
        """Change in row index when moving one hop this way."""
        return _DY[self]

    @property
    def opposite(self) -> "Direction":
        """The reverse direction (N <-> S, E <-> W)."""
        return _OPPOSITE[self]

    @property
    def is_horizontal(self) -> bool:
        return self in (Direction.E, Direction.W)

    @property
    def is_vertical(self) -> bool:
        return self in (Direction.N, Direction.S)

    @property
    def axis(self) -> int:
        """Coordinate axis this direction moves along (x = 0, y = 1).

        Shared with :class:`repro.mesh.topology.Port`: the four directions
        are the ports of every 2D grid (``ports(2)`` is ``DIRECTIONS``), so
        d-dimensional code reads ``axis``/``sign``/``opposite`` on either.
        """
        return _AXIS[self]

    @property
    def sign(self) -> int:
        """+1 for the coordinate-increasing direction, -1 for the other."""
        return _SIGN[self]

    def step(self, node: tuple[int, int]) -> tuple[int, int]:
        """The coordinates one hop from ``node`` in this direction.

        Pure arithmetic; does not check mesh bounds (see
        :meth:`repro.mesh.topology.Topology.neighbor` for that).
        """
        x, y = node
        return (x + _DX[self], y + _DY[self])


_DX = {Direction.N: 0, Direction.E: 1, Direction.S: 0, Direction.W: -1}
_DY = {Direction.N: 1, Direction.E: 0, Direction.S: -1, Direction.W: 0}
_OPPOSITE = {
    Direction.N: Direction.S,
    Direction.S: Direction.N,
    Direction.E: Direction.W,
    Direction.W: Direction.E,
}
_AXIS = {Direction.N: 1, Direction.E: 0, Direction.S: 1, Direction.W: 0}
_SIGN = {Direction.N: 1, Direction.E: 1, Direction.S: -1, Direction.W: -1}

#: ``OPPOSITE[d]`` is the reverse of ``d``, indexed by ``IntEnum`` value.
#: Hot paths use this instead of the :attr:`Direction.opposite` property,
#: whose descriptor-protocol call is measurable in the step loop.
OPPOSITE: tuple[Direction, ...] = (
    Direction.S,
    Direction.W,
    Direction.N,
    Direction.E,
)

#: All four directions in deterministic (N, E, S, W) order.
DIRECTIONS: tuple[Direction, ...] = (
    Direction.N,
    Direction.E,
    Direction.S,
    Direction.W,
)

#: The two horizontal directions.
HORIZONTAL: tuple[Direction, ...] = (Direction.E, Direction.W)

#: The two vertical directions.
VERTICAL: tuple[Direction, ...] = (Direction.N, Direction.S)
