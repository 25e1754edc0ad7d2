"""Motion picture of the spun trefoil: cross-sections by parallel hyperplanes
{w = const} traced as polylines and written one file per frame.

Run from the repository root:  python3 demos/04_motion_picture.py
"""

import os

import numpy as np

import spun4d

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

surface = spun4d.spin(spun4d.get_knot("trefoil_spun"))

# The w-range of the surface bounds the sweep; frames at the extremes are
# tangencies, so sample strictly inside.
grid = spun4d.sample_surface(surface, 64, 64)
w = grid.points[..., 3]
values = np.linspace(float(w.min()), float(w.max()), 26)[1:-1]

slices = [spun4d.slice_surface(surface, "w", float(v)) for v in values]
paths = spun4d.export_slices(slices, "json", os.path.join(OUT, "frame_{}.json"))
for v, sl in zip(values, slices):
    kinds = "".join("o" if c else "-" for c in sl.closed)
    print(f"w = {v:+8.4f}: {len(sl.curves)} curve(s) [{kinds}]  "
          f"({sum(len(c) for c in sl.curves)} points)")
print(f"wrote {len(paths)} frames to {OUT}/frame_*.json")

# The middle frame (w = 0) cuts the surface transversely: there
# dw/dtheta = h(t) cos(theta) != 0, and the true slice is one closed curve,
# the arc at theta = 0 joined at the poles to its mirror image at theta = pi.
# The tracer still returns many short open fragments; this is a known defect
# of the slicer, not a property of the surface.  At n = 128, theta = pi is not
# a grid column (it falls 63.5 steps in), so the mirror image is crossed
# cleanly between two columns.  The trouble is at the grid's edges.  On the
# seam column w is exactly 0 at theta = 0 (a node on the level counts as
# above it) and -2.4e-16 h at theta = 2 pi, so the arc at theta = 0 is never
# crossed.  On the pole rows h(a) = h(b) = -1.2e-12, so the level runs along
# both pole rows instead of through the poles.  The line at theta = pi thus
# ends on the pole rows, and the chaining, which extends a polyline only
# forward from the segment it starts on, breaks that open line into
# two-point pieces.
mid = spun4d.slice_surface(surface, "w", 0.0)
print(f"w = 0 frame: {len(mid.curves)} open fragment(s) in place of one closed curve")
