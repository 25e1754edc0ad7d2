"""The default grid sizes and tolerances of verification and slicing, and the
least grid sides, defined once here: the layers that use them import them, and
the CLI's manifest reads them without executing those layers.
"""

# verify_surface's tolerances, its least parameter separation of a collision,
# and its grids
RANK_TOL = 1e-6
IMAGE_TOL = 1e-3
PARAM_SEP = 0.05
N_RANK = 200
N_INJECT = 400
# the least sides of a sample grid and of a slice grid, and a slice grid's default
GRID_LEAST, SLICE_LEAST, SLICE_N = 2, 64, 128
