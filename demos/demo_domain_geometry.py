"""The quasi-Hermiticity domain: membership, boundary rays, and the
circle-hyperbola construction locating the points of maximal
non-Hermiticity (PMN) at fixed d^2.

Run with:  python3 demos/demo_domain_geometry.py
"""

import math

from quasih import (
    boundary_trace_ray,
    figure1_geometry,
    in_domain,
    pmn_points,
    scan_grid,
)


def main():
    print("== Membership verdicts ==")
    for a, b, d in [(0.0, 0.0, 0.0), (2.0, 0.0, math.sqrt(3.0)), (0.0, 0.0, 3.0)]:
        v = in_domain(a, b, d)
        state = "boundary" if v.on_boundary else ("inside" if v.inside else "outside")
        print(f"  (a,b,d) = ({a:.3f},{b:.3f},{d:.3f}) -> {state:8s} margin {v.margin:+.3e}")
    print()

    print("== Boundary along the +a ray from the origin ==")
    for d in (0.0, 0.5, 1.0):
        a, b = boundary_trace_ray((0.0, 0.0), (1.0, 0.0), d)
        print(f"  d = {d:.2f}: spectrum complexifies at a = {a:.9f}")
    print()

    print("== Coarse scan of the a-b plane at d^2 = 1.6 ==")
    grid = scan_grid((-4, 4), (-4, 4), math.sqrt(1.6), (33, 33))
    for row in grid.inside:
        print("  " + "".join("#" if inside else "." for inside in row))
    print()

    print("== PMN points: circle meets hyperbolas (d^2 = 1.6) ==")
    geo = figure1_geometry(1.6)
    print(f"  circle radius sqrt(10 - 2 d^2) = {geo['circle_radius']:.9f}")
    for h in geo["hyperbolas"]:
        print(f"  hyperbola {h['locus']} centered at {h['center']}")
    for p in pmn_points(1.6):
        print(f"  PMN at (a, b) = ({p.a:+.9f}, {p.b:+.9f})")
    print("  At each of these four points all energies merge at E = 0.")


if __name__ == "__main__":
    main()
