"""The exact symmetry group of a sampled potential, and the sectors of a
pencil under it.

``symmetry_group`` reads G off the sampled values and the grid alone, never
off the potential's family or centre.  The candidates are the coordinate
reflections (index k -> R - 1 - k on one axis) and the transpositions of two
axes of equal resolution.  A GridSpec is isotropic, so every candidate maps
the lattice to itself, and one that fixes V bit for bit maps the sublevel
sets {V < e}, their boundaries and the weight (V - e)_- to themselves: it
commutes with K and M.  Reflections are tried first; a candidate is kept
when it fixes V and commutes with those already kept.  So G is an
elementary abelian 2-group (every element an involution, every character
+-1), with at most three generators in 3D: Z_2^3 on a mirror-exact ball,
<x<->y> on one whose coordinates are not mirror-exact.  A one-ulp change
at one node that some candidate moves drops that candidate.

``Sectors`` holds, for each character chi of G, the +-1 orbit basis P_chi
of the interior I and Q_chi of the boundary B: one column per orbit whose
stabiliser chi does not kill, with entry chi(g) at node g.x and one nonzero
per row.  Stacked side by side the P_chi form a square nonsingular matrix,
and every G-invariant A has P_chi' A P_psi = 0 for chi != psi, so
Sylvester's law gives n_-(A) = sum_chi n_-(P_chi' A P_chi).  A diagonal mass
stays diagonal (each orbit's masses summed), the pinned pencil's eigenvalues
are the union of the sectors' ones, and with Y_chi the sector's
eigenvectors, P_chi Y_chi are eigenvectors of the pencil in the node basis.
G = {id} (``Group.trivial``) has one sector, P and Q identity matrices:
its products by them, and sums over its orbits, give every bit as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import AssembledPencil, PotentialField


@dataclass(frozen=True)
class Group:
    """An elementary abelian 2-group of grid symmetries.

    ``elements`` are permutations of the grid's linear node indices (the
    identity first), each an involution; element j is the product of the
    generators whose bits are set in ``masks[j]``.  ``generators`` names
    them ("flip x", "swap x,y").  Character s takes the value
    (-1)^popcount(s & masks[j]) on element j."""

    elements: tuple
    masks: tuple
    generators: tuple

    @classmethod
    def trivial(cls, num_nodes: int) -> Group:
        """G = {id} on a grid of ``num_nodes`` nodes."""
        return cls((np.arange(num_nodes),), (0,), ())

    @property
    def order(self) -> int:
        return len(self.elements)

    def character(self, s: int) -> np.ndarray:
        """The values +-1 of character ``s`` on the elements."""
        return np.array([-1 if bin(s & m).count("1") % 2 else 1 for m in self.masks])


_AXES = "xyz"


def _candidates(shape: tuple):
    """(name, permutation) of each reflection, then of each transposition of
    two axes of equal resolution."""
    index = np.arange(int(np.prod(shape))).reshape(shape)
    for a in range(len(shape)):
        yield f"flip {_AXES[a]}", np.flip(index, axis=a).ravel()
    for a in range(len(shape)):
        for b in range(a + 1, len(shape)):
            if shape[a] == shape[b]:
                yield f"swap {_AXES[a]},{_AXES[b]}", np.swapaxes(index, a, b).ravel()


def symmetry_group(V: PotentialField) -> Group:
    """The group G of grid symmetries that fix the sampled ``V`` bit for bit
    (see the module docstring for the candidates and the rule)."""
    bits = np.ascontiguousarray(V.values).ravel().view(np.uint64)
    elements = [np.arange(bits.size)]
    masks = [0]
    generators = []
    for name, g in _candidates(V.grid.shape):
        if not np.array_equal(bits[g], bits):
            continue
        # no candidate that commutes with the group is already in it: no
        # flip is the identity, the flips are independent, no swap is a
        # product of flips, and two swaps never commute
        if any(not np.array_equal(g[h], h[g]) for h in elements[1:]):
            continue
        bit = 1 << len(generators)
        generators.append(name)
        elements += [h[g] for h in elements]
        masks += [m | bit for m in masks]
    return Group(tuple(elements), tuple(masks), tuple(generators))


def _orbit_bases(group: Group, nodes: np.ndarray, num_nodes: int):
    """The +-1 orbit bases of one G-invariant set of ``nodes`` (sorted
    linear indices), one per character s: a CSR matrix of shape
    (len(nodes), order of sector s), and the orbit of each of its columns,
    the orbits numbered by their first nodes."""
    local = np.full(num_nodes, -1)
    local[nodes] = np.arange(nodes.size)
    images = np.array([local[g[nodes]] for g in group.elements])
    if images.min(initial=0) < 0:
        raise ValueError("the node set is not invariant under the group")
    first = images.min(axis=0)  # each node's orbit, by its first node
    reps, orbit = np.unique(first, return_inverse=True)
    # the element that maps each node's orbit's first node to the node
    carrier = np.argmax(images == first, axis=0)
    # stabilised[j, o]: element j fixes orbit o's first node
    stabilised = images[:, reps] == reps
    rows = np.arange(nodes.size)
    bases, orbits = [], []
    for s in range(group.order):
        chi = group.character(s)
        killed = (stabilised & (chi < 0)[:, None]).any(axis=0)
        kept = np.flatnonzero(~killed)
        column = np.full(reps.size, -1)
        column[kept] = np.arange(kept.size)
        live = ~killed[orbit]
        bases.append(
            sp.csr_matrix(
                (chi[carrier[live]].astype(float), (rows[live], column[orbit[live]])),
                shape=(nodes.size, kept.size),
            )
        )
        orbits.append(kept)
    return bases, orbits


class Sectors:
    """The sectors of an assembled pencil under a group G of its well:
    ``interior[s]`` is P_s, ``boundary[s]`` is Q_s, and ``orbits[s]`` numbers
    the interior orbit of each column of P_s.  ``interior_orders`` and
    ``boundary_orders`` are the sectors' orders, summing to |I| and |B|."""

    def __init__(self, pencil: AssembledPencil, group: Group):
        self.group_order = group.order
        num_nodes = pencil.grid.num_nodes
        self.interior, self.orbits = _orbit_bases(group, pencil.dec.interior, num_nodes)
        self.boundary, _ = _orbit_bases(group, pencil.dec.boundary, num_nodes)
        self.interior_orders = tuple(P.shape[1] for P in self.interior)
        self.boundary_orders = tuple(Q.shape[1] for Q in self.boundary)

    def masses(self, pencil: AssembledPencil) -> list:
        """The diagonal of each P_s' M_II P_s: each orbit's interior masses,
        summed."""
        return [abs(P).T @ pencil.M_interior for P in self.interior]

    def pencils(self, pencil: AssembledPencil):
        """(P_s' K_II P_s, its mass vector) of each sector, in character
        order; a sector with no interior node has order 0."""
        for P, m in zip(self.interior, self.masses(pencil)):
            yield (P.T @ pencil.K_II @ P).tocsr(), m
