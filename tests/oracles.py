"""
Brute-force crossing and nesting numbers over arc subsets, the ground
truth that the one-sweep ``matching.crossing_nesting`` is checked against.
"""
import itertools


def arcs_cross(a, b):
    """Linear diagram: two disjoint arcs cross iff their endpoints interleave."""
    (a1, a2), (b1, b2) = sorted((a, b))
    return a1 < b1 < a2 < b2


def arcs_nest(a, b):
    """Linear diagram: one arc lies strictly inside the other."""
    return (a[0] < b[0] and b[1] < a[1]) or (b[0] < a[0] and a[1] < b[1])


def crossing_number_oracle(m):
    """Largest set of pairwise crossing arcs, by brute force over subsets."""
    return _subset_oracle(m, arcs_cross)


def nesting_number_oracle(m):
    """Largest set of pairwise nested arcs, by brute force over subsets."""
    return _subset_oracle(m, arcs_nest)


def _subset_oracle(m, related):
    if len(m.arcs) > 16:
        raise ValueError("oracle size guard exceeded")
    for r in range(len(m.arcs), 0, -1):
        for subset in itertools.combinations(m.arcs, r):
            if all(related(a, b) for a, b in itertools.combinations(subset, 2)):
                return r
    return 0
