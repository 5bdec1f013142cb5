"""Reference mathematics the benchmark checks the program's outputs against.

Everything here is written from the definitions and from standard tables
(Bourbaki, *Lie* IV-VI; Humphreys, *Reflection Groups and Coxeter Groups*),
not from the program's own algorithms.  The only input taken from alcove is
a root datum's Cartan matrix, which is the definition of the type.  Points
are handled as integer tuples scaled by the lcm of the marks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

EXCEPTIONAL_MARKS = {
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}
EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}
EXCEPTIONAL_EXPONENT = {
    ("E", 6): Fraction(16),
    ("E", 7): Fraction(27),
    ("E", 8): Fraction(46),
    ("F", 4): Fraction(11),
    ("G", 2): Fraction(10, 3),
}
EXCEPTIONAL_DIM = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}
E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}


def marks(family: str, n: int) -> tuple[int, ...]:
    """Coefficients of the highest root in the simple roots."""
    if family == "A":
        return (1,) * n
    if family == "B":
        return (1,) + (2,) * (n - 1)
    if family == "C":
        return (2,) * (n - 1) + (1,)
    if family == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return EXCEPTIONAL_MARKS[(family, n)]


def weyl_degrees(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return EXCEPTIONAL_DEGREES[(family, n)]


def growth_exponent(family: str, n: int) -> Fraction:
    """The paper's closed form: max over i of (2 rho)_i / c_i."""
    if family == "A":
        return Fraction((n + 1) ** 2 // 4)
    if family == "B":
        return max(Fraction(2 * n - 1), Fraction(n * n, 2))
    if family == "C":
        return Fraction(n * (n + 1), 2)
    if family == "D":
        return Fraction(n * (n - 1), 2)
    return EXCEPTIONAL_EXPONENT[(family, n)]


def group_dimension(family: str, n: int) -> int:
    if family == "A":
        return n * (n + 2)
    if family in "BC":
        return n * (2 * n + 1)
    if family == "D":
        return n * (2 * n - 1)
    return EXCEPTIONAL_DIM[(family, n)]


def gamma_terms(family: str, n: int) -> dict[int, int]:
    """q^N * prod (q^d - 1) over the Weyl degrees d, N = sum (d - 1)."""
    degrees = weyl_degrees(family, n)
    poly = {sum(d - 1 for d in degrees): 1}
    for d in degrees:
        poly = poly_mul(poly, {d: 1, 0: -1})
    return poly


def poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_eval(p: dict[int, int], q: int) -> int:
    return sum(c * q**e for e, c in p.items())


def poly_divmod(p: dict[int, int], d: dict[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """Long division over the integers; d must be monic in its top term."""
    rem = dict(p)
    top = max(d)
    if d[top] != 1:
        raise ValueError("divisor must be monic")
    quot: dict[int, int] = {}
    while rem and max(rem) >= top:
        e = max(rem)
        c = rem[e]
        quot[e - top] = c
        for de, dc in d.items():
            k = e - top + de
            rem[k] = rem.get(k, 0) - c * dc
            if not rem[k]:
                del rem[k]
    return quot, rem


def special_vertex_count(mark_tuple: tuple[int, ...], r: int) -> int:
    """Integer t >= 0 with sum c_i t_i <= r, by a coin-change count."""
    ways = [1] + [0] * r
    for c in mark_tuple:
        for s in range(c, r + 1):
            ways[s] += ways[s - c]
    return sum(ways)


def type_a_vertex_count(n: int, r: int) -> int:
    return comb(r + n, n)


def positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots as the W-orbit of the simple roots, cut to one sign.

    s_i(b) = b - <b, alpha_i^vee> alpha_i with <b, alpha_i^vee> = sum_j b_j A[j][i].
    """
    d = len(cartan)
    simple = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        beta = queue.pop()
        for i in range(d):
            pairing = sum(beta[j] * cartan[j][i] for j in range(d))
            if pairing:
                image = tuple(b - pairing * (j == i) for j, b in enumerate(beta))
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
    return sorted((r for r in seen if min(r) >= 0), key=lambda r: (sum(r), r))


def relative_norms(cartan) -> list[Fraction]:
    """Squared root lengths up to a common factor, longest = 1."""
    d = len(cartan)
    norm: list[Fraction | None] = [None] * d
    norm[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(d):
            if j != i and cartan[i][j] and norm[j] is None:
                norm[j] = norm[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    top = max(norm)
    return [v / top for v in norm]


def extended_bonds(cartan, mark_tuple) -> dict[frozenset, int]:
    """Bond multiplicities of the extended Dynkin diagram; node 0 is -theta."""
    d = len(cartan)
    bonds = {}
    for i in range(d):
        for j in range(i + 1, d):
            if cartan[i][j]:
                bonds[frozenset((i + 1, j + 1))] = cartan[i][j] * cartan[j][i]
    norm = relative_norms(cartan)
    for j in range(d):
        p = sum(mark_tuple[k] * cartan[k][j] for k in range(d))  # <theta, alpha_j^vee>
        if p:
            m = p * p * norm[j]
            bonds[frozenset((0, j + 1))] = int(m)
    return bonds


def _component_order(nodes: set[int], bonds: dict[frozenset, int]) -> int:
    k = len(nodes)
    edges = {e: m for e, m in bonds.items() if e <= nodes}
    mults = sorted(edges.values())
    if k == 1:
        return 2
    if 3 in mults:
        return 12
    degree = {v: sum(1 for e in edges if v in e) for v in nodes}
    if 2 in mults:
        if k == 4:
            (double,) = [e for e, m in edges.items() if m == 2]
            if all(degree[v] == 2 for v in double):
                return 1152
        return 2**k * factorial(k)
    branch = [v for v in nodes if degree[v] == 3]
    if not branch:
        return factorial(k + 1)
    centre = branch[0]
    arms = []
    for start in (v for e in edges if centre in e for v in e if v != centre):
        length, prev, cur = 1, centre, start
        while True:
            nxt = [v for e in edges if cur in e for v in e if v not in (cur, prev)]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return 2 ** (k - 1) * factorial(k)
    return E_ORDERS[k]


def parabolic_order(nodes: set[int], bonds: dict[frozenset, int]) -> int:
    """Order of the Weyl group of a finite sub-diagram, component by component."""
    order = 1
    left = set(nodes)
    while left:
        comp = {left.pop()}
        grow = True
        while grow:
            grow = False
            for e in bonds:
                if e & comp and e <= nodes and not e <= comp:
                    comp |= e
                    grow = True
        left -= comp
        order *= _component_order(comp, bonds)
    return order


def corner_degree(cartan, mark_tuple, i: int) -> int:
    """Edges at alcove corner v_i: sum over j != i of |W_(S~ - i)| / |W_(S~ - {i, j})|."""
    bonds = extended_bonds(cartan, mark_tuple)
    allnodes = set(range(len(cartan) + 1))
    whole = parabolic_order(allnodes - {i}, bonds)
    return sum(
        whole // parabolic_order(allnodes - {i, j}, bonds) for j in allnodes if j != i
    )


class Geometry:
    """Scaled-integer apartment geometry of one type.

    A point is stored as the integer tuple N*t, with t_i = alpha_i(x) and
    N the lcm of the marks; root values are then integers N*alpha(x).
    """

    def __init__(self, family: str, n: int, cartan):
        self.cartan = cartan
        self.rank = n
        self.marks = marks(family, n)
        self.N = lcm(*self.marks)
        self.roots = positive_roots(cartan)
        self._values: dict[tuple[int, ...], tuple[int, ...]] = {}

    def scaled(self, point) -> tuple[int, ...]:
        out = []
        for t in point:
            t = Fraction(t)
            v = t * self.N
            if v.denominator != 1:
                raise ValueError(f"{point} is off the 1/{self.N} grid")
            out.append(v.numerator)
        return tuple(out)

    def unscaled(self, a) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.N) for v in a)

    def values(self, a: tuple[int, ...]) -> tuple[int, ...]:
        vals = self._values.get(a)
        if vals is None:
            vals = tuple(sum(c * v for c, v in zip(root, a)) for root in self.roots)
            if len(self._values) < 20_000:
                self._values[a] = vals
        return vals

    def corner(self, i: int) -> tuple[int, ...]:
        if i == 0:
            return (0,) * self.rank
        return tuple(self.N // self.marks[i - 1] if j == i - 1 else 0 for j in range(self.rank))

    def reflect(self, a, i: int) -> tuple[int, ...]:
        """Simple reflection s_i: t_j -> t_j - t_i A[j][i]."""
        ti = a[i]
        return tuple(v - ti * self.cartan[j][i] for j, v in enumerate(a))

    def translate(self, a, coroot_coeffs) -> tuple[int, ...]:
        """Translation by sum u_i alpha_i^vee: t_j -> t_j + sum_i A[j][i] u_i."""
        return tuple(
            v + self.N * sum(self.cartan[j][i] * u for i, u in enumerate(coroot_coeffs))
            for j, v in enumerate(a)
        )

    def affine_images(self, points, rng, reflections: int, reach: int) -> list[tuple[int, ...]]:
        """One random affine Weyl group element applied to every point: simple
        reflections, then a coroot translation with coefficients in [-reach, reach]."""
        word = [rng.randrange(self.rank) for _ in range(reflections)]
        shift = [rng.randint(-reach, reach) for _ in range(self.rank)]
        out = []
        for a in points:
            for i in word:
                a = self.reflect(a, i)
            out.append(self.translate(a, shift))
        return out

    def in_scaled_alcove(self, a, r: int) -> bool:
        return min(a) >= 0 and sum(c * v for c, v in zip(self.marks, a)) <= r * self.N

    def wall_distance(self, a, b) -> int:
        """0 if a == b, else 1 + the most integers strictly between alpha(x)
        and alpha(y) over the positive roots alpha."""
        if a == b:
            return 0
        N = self.N
        best = 0
        for u, v in zip(self.values(a), self.values(b)):
            lo, hi = (u, v) if u < v else (v, u)
            # integers k with lo < kN < hi
            count = -(-hi // N) - lo // N - 1
            if count > best:
                best = count
        return 1 + best

    def max_root_gap(self, a, b) -> Fraction:
        return Fraction(max(abs(u - v) for u, v in zip(self.values(a), self.values(b))), self.N)

    def quotient_exponent(self, a, cap: int | None) -> int:
        """sum over positive roots of max(min(ceil alpha(x), cap) - 1, 0)."""
        total = 0
        for v in self.values(a):
            level = -(-v // self.N)
            if cap is not None:
                level = min(level, cap)
            total += max(level - 1, 0)
        return total

    def two_rho(self, a) -> Fraction:
        return Fraction(sum(self.values(a)), self.N)

    def index_exponent(self, a, b) -> int:
        """sum over all roots of ceil(g) - ceil(f) for f = f_x + r and
        g = max(f_x, f_y) + r; the shift r cancels."""
        N = self.N
        total = 0
        for u, v in zip(self.values(a), self.values(b)):
            low, high = min(u, v), max(u, v)
            total += u // N - low // N  # at +alpha: f = -alpha(x) + r
            total += -(-high // N) - -(-u // N)  # at -alpha
        return total

    def is_vertex(self, a) -> bool:
        """The roots with integer values at a span the whole space.

        Rows are reduced one at a time against an echelon basis over Q;
        every basis row is zero at the pivots of the rows before it.
        """
        basis: list[tuple[int, list[Fraction]]] = []
        for root, v in zip(self.roots, self.values(a)):
            if v % self.N:
                continue
            row = [Fraction(c) for c in root]
            for col, b in basis:
                if row[col]:
                    f = row[col] / b[col]
                    row = [x - f * y for x, y in zip(row, b)]
            pivot = next((c for c, x in enumerate(row) if x), None)
            if pivot is not None:
                basis.append((pivot, row))
                if len(basis) == self.rank:
                    return True
        return False


def grid_points_in_scaled_alcove(mark_tuple: tuple[int, ...], N: int, r: int) -> int:
    """Number of a in Z^d, a >= 0, with sum c_i a_i <= r N (the 1/N grid of rC)."""
    return special_vertex_count(mark_tuple, r * N)


def brute_force_vertex_count(geo: Geometry, r: int) -> int:
    """Vertices of rC found by testing every point of the 1/N grid."""
    d, limit = geo.rank, r * geo.N
    count = 0
    point = [0] * d

    def walk(j: int, left: int) -> None:
        nonlocal count
        if j == d:
            count += geo.is_vertex(tuple(point))
            return
        for v in range(left // geo.marks[j] + 1):
            point[j] = v
            walk(j + 1, left - v * geo.marks[j])
        point[j] = 0

    walk(0, limit)
    return count
