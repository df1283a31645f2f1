"""Backdoor detection and evaluation for clausal temporal formulas."""

from .detection import (HORN, KROM, ConflictGraph, HittingFamily,
                        build_horn_conflict_graph, build_krom_hitting_family,
                        detect_horn_backdoor, detect_krom_backdoor,
                        hitting_set_3, minimal_backdoor_bruteforce,
                        verify_backdoor, vertex_cover)
from .evaluation import (EvalResult, candidate_encodings,
                         candidate_theta_sets, encoding_size_bound,
                         evaluate_horn_star, global_assignment,
                         propositionalize, relabel_copy)
from .formula import (Clause, ConsistentAssignment, Lit, Mod, SnfFormula,
                      clause_is_horn, clause_is_krom, consistent_assignments,
                      reduct, remove_tautologies, validate_normal_form)
from .interp import (AssignmentSet, FiniteWindowInterpretation,
                     from_assignment_set, holds_literal, models)
from .oracle import star_sat_oracle, window_sat_oracle
from .propsat import (Atom, PropCnf, brute_sat, copy_atom, global_atom,
                      horn_sat, plain_atom, solve_cnf, to_dimacs, two_sat)
from .reductions import (FP_HORN, STAR_KROM, Colouring, Graph, brute_3col,
                         coloring_from_model, is_proper, model_from_coloring,
                         threecol_to_fp_horn, threecol_to_star_krom)

__version__ = "0.1.0"
