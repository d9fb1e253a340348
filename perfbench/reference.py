"""Regenerate the reference values the benchmark's checks use.

Usage (from the root of a checkout):

    python3 perfbench/reference.py

Prints:

* ``ROUTE_GAP_C`` for checks.py: four times the largest normalized macro
  route gap gap / (t (dt + h_max^2)) of macro-3d's rounds over seeds 0..19;
* for the matrix inputs of gradual-20k and jump-8k (FIXED_SEED, rounds 0..9
  for jump-8k), the largest det(Jbar) sohb's averaging produces against the
  floor ``rotations.DELTA_DET``, and the smallest scale-free ratio
  det(Jbar) / (mean singular value)^3 against ``checks.SCALE_FREE_FLOOR``.
  A largest det below the floor is why every matrix operation there fails;
  the jump-8k matrix events of rounds 0..15 are then run to confirm it.
"""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
os.environ.setdefault("OMP_NUM_THREADS", "2")
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sohb import alignment, gci, macro, micro, rotations, sampling  # noqa: E402
from sohb.rng import make_rng  # noqa: E402


#: Jump rounds whose matrix events are all checked to fall back; a run makes
#: about six at 20 seconds.
ROUNDS_CHECKED = 16


def route_gap_constant(seeds=range(20)):
    wl = workloads.Macro3d
    consts = gci.constants(wl.D, gci.GRADUAL)
    worst = 0.0
    for seed in seeds:
        f_mat, f_quat = workloads.twisted_field_3d(wl.SHAPE, make_rng(seed, 9000))
        for _ in range(wl.STEPS):
            f_mat = macro.step_macro(f_mat, consts, wl.DT)
            f_quat = macro.step_macro(f_quat, consts, wl.DT)
        h_max = float(np.max(f_mat.spacing))
        gap = checks.route_gap(f_mat.orient, f_quat.orient)
        worst = max(worst, gap / (wl.STEPS * wl.DT * (wl.DT + h_max**2)))
    return worst


def matrix_average_report(state, box):
    grid = alignment.build_grid(state.x, box, 1.0)
    jbar = alignment.average_rotation_matrix(grid, alignment.KernelConfig(1.0), state.orient)
    det = np.linalg.det(jbar).max()
    ratio = checks.scale_free_ratio(state.x, state.orient, box, 1.0).min()
    return det, ratio


def main():
    worst = route_gap_constant()
    print(f"macro-3d: largest gap / (t (dt + h^2)) = {worst:.3e}; ROUTE_GAP_C = 4x = {4 * worst:.3e} "
          f"(checks.py has {checks.ROUTE_GAP_C:g})")

    wl = workloads.Gradual20k(0, ".", spans.NullTracer(), probe.Probe())
    det, ratio = matrix_average_report(wl.initial_matrix, wl.box)
    print(f"gradual-20k matrix: max det(Jbar) {det:.3e} vs DELTA_DET {rotations.DELTA_DET:g}; "
          f"min scale-free ratio {ratio:.3f} vs floor {checks.SCALE_FREE_FLOOR:g}")

    jw = workloads.Jump8k
    box = (jw.N / jw.DENSITY) ** (1.0 / 3.0)
    params = micro.SimParams(n_particles=jw.N, d=jw.D, box=box, radius=1.0, model=micro.JUMP)
    dets, ratios = [], []
    for r in range(10):
        rng = workloads.SplitClockRng(make_rng(workloads.FIXED_SEED, 8000 + r),
                                  make_rng(workloads.FIXED_SEED, 8100 + r))
        center = sampling.sample_uniform_rot(rng)
        state = micro.initial_state(params, rng, align_center=center, align_d=jw.ALIGN_D)
        det, ratio = matrix_average_report(state, box)
        dets.append(det)
        ratios.append(ratio)
    print(f"jump-8k matrix rounds 0-9: max det(Jbar) {max(dets):.3e} vs DELTA_DET {rotations.DELTA_DET:g}; "
          f"min scale-free ratio {min(ratios):.3f} vs floor {checks.SCALE_FREE_FLOOR:g}")

    jump = workloads.Jump8k(0, ".", spans.NullTracer(), probe.Probe())
    for r in range(ROUNDS_CHECKED):
        jump.run_round(r)
    print(f"jump-8k rounds 0-{ROUNDS_CHECKED - 1}: {jump.failed} of {jump.attempted // 2} matrix events "
          f"fall back; problems {jump.problems}")


if __name__ == "__main__":
    main()
