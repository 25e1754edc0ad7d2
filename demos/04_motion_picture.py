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
# The tracer still returns many short fragments on that curve, because the
# level runs exactly along grid rows (theta = 0, pi) and the pole rows; this
# is a known defect of the slicer, not a property of the surface.
mid = spun4d.slice_surface(surface, "w", 0.0)
print(f"w = 0 frame: {len(mid.curves)} fragment(s) along the arc and its mirror image")
