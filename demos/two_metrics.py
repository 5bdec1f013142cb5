"""Two distances on apartment vertices, and where they disagree.

The wall distance counts, family by family, the hyperplanes of one
parallel class strictly separating two vertices, takes the worst
family, and adds one; two distinct vertices at wall distance 1 are
exactly the pairs sharing a closed alcove.  The simplicial distance
is the path length in the graph whose edges are those adjacent pairs.
The first never exceeds the second, and they agree on small classical
types, but not always: G2 and B3 both contain strict gaps.
"""

from fractions import Fraction as F

from alcove import (
    adjacent,
    apartment_ball,
    build_root_datum,
    iter_wall_ball_points,
    origin,
    parse_type,
    simplicial_distance,
    simplicial_distances,
    wall_distance,
)

a2 = build_root_datum(parse_type("A2"))
o = origin(a2)

print("A2 wall distances from the origin:")
for target in ((F(1), F(0)), (F(1), F(1)), (F(2), F(1))):
    rep = wall_distance(a2, o, target)
    print(f"  d(o, {tuple(map(str, target))}) = {rep.d}, "
          f"worst root {rep.witness_root} crosses {rep.wall_count} walls")

# balls grow quickly even in rank 2
for r in (1, 2, 3):
    ball = apartment_ball(a2, o, r)
    print(f"A2 ball of radius {r}: {len(ball.points)} vertices, "
          f"{ball.per_type_counts} by type")

# on A2 the two metrics agree on every pair of the radius-2 ball
ball = sorted(iter_wall_ball_points(a2, o, 2))
table_ok = all(
    simplicial_distances(a2, x, 6)[y] == wall_distance(a2, x, y).d
    for x in ball
    for y in ball
)
print(f"A2: metrics agree on all {len(ball)**2} pairs of B(o, 2): {table_ok}")
print()

# G2: the point one long-root step out is three walls away, but every
# edge path needs four steps
g2 = build_root_datum(parse_type("G2"))
og = origin(g2)
x = (F(1), F(0))
print(f"G2 pair o -> {tuple(map(str, x))}:")
print(f"  wall distance       {wall_distance(g2, og, x).d}")
print(f"  simplicial distance {simplicial_distance(g2, og, x, 10)}")

# B3: a corner and its translate are two walls apart yet share no
# neighbor, so the edge path needs three steps; the obstruction is a
# contradictory system of root constraints on the middle vertex
b3 = build_root_datum(parse_type("B3"))
x = (F(0), F(0), F(1, 2))
y = (F(-3, 2), F(0), F(1, 2))
print(f"B3 pair {tuple(map(str, x))} -> {tuple(map(str, y))}:")
print(f"  wall distance       {wall_distance(b3, x, y).d}")
print(f"  simplicial distance {simplicial_distance(b3, x, y, 10)}")
middle = [
    z
    for z in iter_wall_ball_points(b3, x, 1)
    if adjacent(b3, x, z) and adjacent(b3, y, z)
]
print(f"  common neighbors: {middle}")
