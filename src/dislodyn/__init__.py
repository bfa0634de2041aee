"""Gradient-flow dynamics of 2D screw dislocations under the renormalised
energy: domain kernels, collision detection, quantitative collision-time
bounds and closed-form oracles."""

from .geometry import (AxisAlignedPolygon, BoundaryProbe, Configuration, Disk,
                       Dislocation, ExteriorDisk, HalfPlane, Plane,
                       SmoothCurveDomain, cardioid_domain, in_class_C,
                       in_class_D, min_separation)
from .kernels_analytic import (DiskKernels, ExteriorDiskKernels,
                               HalfPlaneKernels, KernelEvaluator, PlaneKernels,
                               analytic_kernels)
from .kernels_numeric import GridKernels, NumericKernelConfig, NystromKernels
from .mechanics import (GlideSet, energy, forces, mobility_glide,
                        mobility_identity)
from .dynamics import (BoundaryCollision, HorizonReached, IntegrationParams,
                       PairCollision, StepFailure, Trajectory,
                       corrected_collision_time, integrate)
from .bounds import (BoundReport, boundary_scenario, c_sigma,
                     fatal_force_bound, grad_G_bounds, grad_h_far_bound,
                     grad_h_near_bound, pair_scenario,
                     verify_against_trajectory)
from .oracles import (EQUILIBRIUM_RADIUS, OracleResult, disk_pair_reduced_ode,
                      disk_single, disk_symmetric_pair, halfplane_single,
                      plane_pair)

__version__ = "0.1.0"
