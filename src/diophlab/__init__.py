"""Toolkit for multiplicative Diophantine approximation experiments.

Exact interval-set construction of the simultaneous and product closeness
sets, lattice-pair counting with discrepancy machinery, premeasure and
measure bounds, the dimension exponent tau, planar product sets, and a
seeded verification harness behind a single CLI.
"""

from .approx_sets import (FracParams, decompose_product_set, dist_nearest_int,
                          product_membership, product_set,
                          product_set_cover_cost, simultaneous_set,
                          cover_simultaneous)
from .dimension import (SeriesSpec, TauResult, compute_tau, converges,
                        single_series_threshold, estimate_box_dimension,
                        term_value)
from .intervals import (CellCapExceeded, IntervalSet, box_count, difference,
                        intersect, lebesgue, normalize, premeasure_upper,
                        symmetric_difference, union)
from .lattice import (SamplePoints, count_integer_bound, count_near_pairs,
                      discrepancies, discrepancy, erdos_turan_rhs,
                      erdos_turan_rhs_table, exp_sums, lattice_fraction_points)
from .planar import (BoxSet, decompose_planar_product_set,
                     mc_planar_product_area, product_rectangle_set)
from .sequences import PsiSpec, SequenceSpec, eval_psi, eval_sequence, log_weight

__version__ = "0.1.0"
