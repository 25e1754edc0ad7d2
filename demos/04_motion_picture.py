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
# dw/dtheta = h(t) cos(theta) != 0, and the slice is one closed curve, the arc
# at theta = 0 joined at the poles to its mirror image at theta = pi.  The
# slicer treats the theta seam and each pole row as the single points of the
# sphere they are, so the curve runs on across them.
mid = spun4d.slice_surface(surface, "w", 0.0)
print(f"w = 0 frame: {len(mid.curves)} curve(s), {sum(mid.closed)} closed")
