"""Motion picture of the spun trefoil: cross-sections by parallel hyperplanes
{w = const} traced as polylines and written one file per frame.

Run from the repository root:  python3 demos/04_motion_picture.py
"""

import os

import spun4d

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

surface = spun4d.spin(spun4d.get_knot("trefoil_spun"))

# 24 frames at levels evenly spaced strictly inside the w-range of the
# sampled surface (the frames at the extremes would be tangencies), all sliced
# from one sampling of the surface.
slices = spun4d.sweep_surface(surface, "w", 24)
paths = spun4d.export_slices(slices, "json", os.path.join(OUT, "frame_{}.json"))
for sl in slices:
    kinds = "".join("o" if c else "-" for c in sl.closed)
    print(f"w = {sl.slice_value:+8.4f}: {len(sl.curves)} curve(s) [{kinds}]  "
          f"({sum(len(c) for c in sl.curves)} points)")
print(f"wrote {len(paths)} frames to {OUT}/frame_*.json")

# The middle frame (w = 0) cuts the surface transversely: there
# dw/dtheta = h(t) cos(theta) != 0, and the slice is one closed curve, the arc
# at theta = 0 joined at the poles to its mirror image at theta = pi.  The
# slicer treats the theta seam and each pole row as the single points of the
# sphere they are, so the curve runs on across them.
mid = spun4d.slice_surface(surface, "w", 0.0)
print(f"w = 0 frame: {len(mid.curves)} curve(s), {sum(mid.closed)} closed")
