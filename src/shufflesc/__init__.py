"""Exact combinatorics of the shuffle product's state complexity.

Automata and transformations (`automata`), the tableau state space of the
shuffle of full-transition automata (`monster`), the set-vector path
calculus with its validity predicates and explicit witnesses (`upair`),
exact counting through matrices, closed forms and generating series
(`enumeration`), automated conjecture checks (`conjecture`), and a CLI
(`cli`).
"""

from .automata import (
    Dfa,
    Nfa,
    Transformation,
    determinize,
    dfa_from_json,
    dfa_to_json,
    minimize,
    nfa_from_json,
    nfa_to_json,
    shuffle_nfa,
)
from .conjecture import (
    ConjectureReport,
    WitnessReport,
    check_conjecture1,
    check_conjecture2,
    verify_witnesses,
)
from .enumeration import (
    ExactMatrix,
    closed_form_coeffs,
    graded_count,
    hadamard,
    lower_bound_ie,
    matrix_A,
    matrix_B,
    matrix_power,
    matrix_S,
    r_stirling2,
    r_total,
    r_totals,
    series_closed,
    series_direct,
    stirling2,
    succ_count,
    succ_count_oracle,
    u_total,
)
from .errors import SizeGuardError
from .monster import (
    MonsterLetter,
    ReachResult,
    ScResult,
    Tableau,
    distinguishing_letters,
    f_bound,
    is_valid_tableau,
    reachable_tableaux,
    state_complexity_shuffle,
    tableau_step,
)
from .upair import (
    SetVector,
    UPair,
    act,
    enumerate_dense,
    erase_cell_letter,
    generate_graded,
    is_dense,
    is_lvalid,
    is_rvalid,
    mirror,
    p_of_path,
    pair_of_settableau,
    s_projection,
    settableau_of_pair,
    shift_up,
    succ_left,
    succ_right,
    union_vec,
    witness_full,
    witness_permutation,
)

__version__ = "0.1.0"
