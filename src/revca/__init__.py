"""Reversible second-order 2D cellular automata and their exact algebra.

Four first-order rules (two linear, two threshold variants) and their
reversible second-order lifts, exact GF(2) Laurent-polynomial fast paths
for the linear rules, closed-form population recursions, and verification
suites that machine-check every identity by direct computation.
"""

from .grid import (BinaryGrid, Cell, CountRecord, MixedParityError,
                   SecondOrderState, count_values, diagonal_embed,
                   diagonal_extract, grid_from_text, grid_to_text, shift,
                   single_seed, swap_x, xor)
from .gf2poly import (IndexOutOfRangeError, LaurentPoly2, NonlinearRuleError,
                      PolyPair, fib_addition_split, fib_poly_eval,
                      fib_poly_naive, grid_to_poly, lucas_poly_eval,
                      poly_from_text, poly_to_grid, poly_to_text,
                      state_poly_at, transition_poly)
from .rules import (LIFT_NAMES, Rule, evolve, first_order_step, parse_rule,
                    second_order_inverse, second_order_step, trajectory,
                    trajectory_counts)
from .sequences import (RelationViolationError, SeqId, SequenceTable,
                        binary_weight, build_table,
                        linear_count, seq_value, seq_value_alt)
from .verify import SuiteReport, run_all, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
