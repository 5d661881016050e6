"""Reach-avoid games between damped double-integrator players.

A faster defender guards a static target against a slower attacker; the
library computes the exact single-player motion primitives (closed-form
propagation, isochrones, point steering), the tangency-time solver for the two
isochron families, each player's multiple reachable region, the attacker's
dominance regions, equal-time capture plans and deviation strategies, and a
closed-loop simulator that reproduces the reference scenarios.
"""
from .dynamics import (Control, DomainError, InfeasibleTargetError, Isochron,
                       PlayerParams, PlayerState, isochron, propagate,
                       steer_to)
from .dominance import (BoundaryMinimum, CaptureBoundary, GameConfig,
                        R3Component, R3Condition, RegionLabel,
                        boundary_minima, capture_boundary, classify_point,
                        r3_certificates, region_map, tangency_windows)
from .engine import (AttackerPolicy, DefenderPolicy, GameTrace, Outcome,
                     OutcomeKind, Scenario, TraceRow, run)
from .geometry import Vec2
from .mrr import (Branch, MrrBoundary, ReachClassification, ReachKind,
                  barrier_time, boundary_point, classify, cusp_time,
                  mrr_boundary)
from .scribe import (RootSet, ScribeBatch, ScribeMode, ScribeProblem,
                     find_zero, first_zero, gap, reach_times, reach_times_many,
                     scribe_times, scribe_times_batch)
from .strategies import (AttackerWinsError, CostateRecord, TerminalPlan,
                         apollonius_circle, apollonius_plan, best_r3_point,
                         can_reach_target, choose_plan, costate_record,
                         hamiltonian_check, plan_for_point, pure_pursuit,
                         strategy_one)

__version__ = "0.1.0"

__all__ = [
    "AttackerPolicy", "AttackerWinsError", "BoundaryMinimum", "Branch",
    "CaptureBoundary", "Control", "CostateRecord", "DefenderPolicy",
    "DomainError", "GameConfig", "GameTrace", "InfeasibleTargetError",
    "Isochron", "MrrBoundary", "Outcome", "OutcomeKind", "PlayerParams",
    "PlayerState", "R3Component", "R3Condition", "ReachClassification",
    "ReachKind", "RegionLabel", "RootSet", "Scenario", "ScribeBatch",
    "ScribeMode", "ScribeProblem", "TerminalPlan", "TraceRow", "Vec2",
    "apollonius_circle", "apollonius_plan", "barrier_time", "best_r3_point",
    "boundary_minima", "boundary_point", "can_reach_target",
    "capture_boundary", "choose_plan", "classify", "classify_point",
    "costate_record", "cusp_time", "find_zero", "first_zero", "gap",
    "hamiltonian_check", "isochron", "mrr_boundary", "plan_for_point",
    "propagate", "pure_pursuit", "r3_certificates", "reach_times",
    "reach_times_many", "region_map", "run", "scribe_times",
    "scribe_times_batch", "steer_to", "strategy_one", "tangency_windows",
]
