"""The PQE engine: prove the first block's quantified clauses redundant one
at a time, learning D-sequents and clauses along the way.

Search layout
-------------
The trail holds (var, value, reason, level) entries, and their levels are
the only record of the decision levels. ``_apply`` gives a new entry the
level of the entry below it, one more if the entry steers, which it reads
from the reason alone: the reason is ``None`` (a decision), a D-sequent (a
record's flip or hint) or the current target clause (the target's own
unit). Every other entry is a clause implication at the level of the entry
below it. Level-wise backtracking, which pops the entries above a level,
can therefore undo the steering entries cleanly.
Where nothing propagates, BCP branches (``_branch``) on the first
unassigned variable of one static order, free variables ascending, then
quantified ones. A stored record the trail subsumes is reused instead; a
stored record unit on that variable gives it the flipped value with the
record as its reason; otherwise it is decided 0.

While proving one clause redundant the engine may need other clauses proved
first; those secondary targets are tracked by a stack of target levels, one
per unit-clause assignment made while processing a target-derived
assignment (clause-only propagation). A target level is marked on that
assignment's trail entry, its key: the entry's reason is the key clause and
its variable the key variable. Its pending targets are not stored: the
clause store names the lowest open one (``ClauseDb.open_partner``), a live
clause the assignment leaves unsatisfied and resolvable with the key on that
variable, whenever the next one is picked. A clause proved redundant
at a live level is soft-deleted, and its record lives only in the key
entry's ``done`` map until the level ends and restores the clause. A level
ends when ``_pop_suffix`` pops its key entry (``_handle_duplicate`` alone
also ends those whose key entry it leaves).

The primaries are the F1 clauses with a quantified literal, proved in the
order of ``f1_ids``. ``solve`` walks that list in place, so an F1 clause
derived during one proof becomes a primary later in the same walk. The
primary target is the bottom of the target stack: with no target level left,
the target is the primary, its point of origin lies before the first trail
entry and its floor is decision level 0. Every learned record and conflict
clause, whichever target it is for, goes through one backtracking rule
(``_bcktr_dseq``, ``_bcktr_clause``): flip the deepest assignment of the
record's conditional that lies above the point of origin, or jump as the
conflict clause asserts. The proof of the primary is finished when a record
for it has an empty conditional. With target levels live, only a learned
empty clause gives one.

Learning happens where a condition is found. Each detector (satisfied,
falsified or blocked target, falsified clause, reusable stored record)
learns from it at once and returns a record for the current target or a
conflict clause, and ``prove_redundant`` hands that to the rule above.
A conflict clause comes from one downward walk of the trail
(``_conflict_walk``), resolving at each entry whose false literal the
resolvent holds. When the target is falsified and that resolvent is
already stored, a second walk resolves only the quantified literals: the
clause of free literals it leaves is false under the free assignment and
carries the target's record, so the proof stays in the search. The SAT
fallback (``_handle_duplicate``) is left for partner records that cannot
certify a blocked clause (``_third_kind``), for that walk meeting a
quantified decision or record flip, and for a stored resolvent of a
falsified clause other than the target. Partner records fail mostly by
self-support, their merged constraint holding the blocked clause itself,
and rarely by a cycle that leaves them no application order.

Propagation state
-----------------
The engine never scans the formula to find falsified or unit clauses. Every
assignment and unassignment goes through ``_apply`` and ``_pop_suffix`` to
the clause store, which keeps per clause that can return a count of true
literals and a count of non-false ones, and from the counts the sets of
active falsified and active unit clause ids (see ``ClauseDb``). A proved
primary is removed from the store for good (``ClauseDb.remove``), so no
assignment or partner list meets it again. Every pop, the whole trail's
that ends a proof too, undoes its entries one by one and ends each target
level as its key pops.
A round of BCP reads the target's counts and takes the lowest falsified id.
Failing a condition, it applies the unit clause with the lowest id, the
target's own unit last. With no unit, a target blocked at a quantified
variable is a condition, and otherwise BCP branches. The lowest id is the
one a scan of the formula in id order would find first, and ``_bcp_star``
applies units by the same rule; a unit's free literal is read off the
clause. The target's unit comes last because it is no implication: on a
free variable it steers the branch, on a quantified one it starts
``_bcp_star``. A backtrack applies the assignment it asserts itself, a
record's flip or a conflict clause's asserting literal, so BCP looks for
the next condition with it on the trail.
The blocked-clause test asks the same of the store: a target is blocked on
a literal when it has no open partner there. The store reads its partner
index, per (clause, literal) the ascending ids of the clauses resolvable
with it, extended when derived clauses arrive, and the partners' liveness
and true counts.
``SolverConfig.check_invariants`` re-derives the counts of every clause
that can return, the count lists, the sets, the free literals, the partner
lists and the blocked test by scans at every round, and asserts that they
agree, that no removed clause is counted or in a set, and that every trail
entry lies at the level the rule above gives it.

Records
-------
``_rewrite`` joins a learned record back through the trail in one downward
walk from the conditional's top entry, as ``_conflict_walk`` does: a join
adds only assignments below the entry it eliminates. A record reason joins
only if its other assignments lie below its entry; a clause reason joins
untested, as BCP applied it when its other literals were false below it.
Every derived D-sequent is counted in ``stats`` (``_emit``). The records
``_rewrite`` passes through on the way to its result are built only when
an ``on_dsequent`` observer sees them; without one it carries the
conditional and constraint as plain mutable values and builds one record at
the end. It reads a reason clause's falsifying assignment from a per-clause
cache: clauses never change. ``_third_kind`` likewise builds a live
partner's atomic1 record only for an observer and merges the partner's
satisfying entry straight into the blocked clause's conditional. The
observer gets the live formula as a function, ``live``, so the
sorted copy of every live clause is made only for an observer that reads it.
Records are stored as derived (``DSequentStore``). A stored record is
reused, or gives a branch hint, only while every clause of its constraint
is active. At k = 0 that always holds: records exist only for the
primary, the target only while no target level is live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import dsequent as dsq
from .dsequent import DSequent, DSequentStore
from .formula import (
    Assignment,
    Clause,
    ClauseDb,
    EcnfProblem,
    Lits,
    canonical_lits,
    clause_falsified,
    clause_satisfied,
    falsifying_assignment,
    is_blocked,
    satisfying_value,
    unit_literal,
)
from .satcore import ResourceLimit, sat_solve


@dataclass
class SolverConfig:
    learn_depth_k: int = 0  # -1: learn nothing; 0: bottom-level targets only
    max_conflicts: Optional[int] = None
    max_seconds: Optional[float] = None
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.learn_depth_k < -1:
            raise ValueError(f"learn_depth_k must be -1 or more, not {self.learn_depth_k!r}")
        if self.max_conflicts is not None and self.max_conflicts < 0:
            raise ValueError(f"max_conflicts must be 0 or more, not {self.max_conflicts!r}")
        if self.max_seconds is not None and not self.max_seconds >= 0:  # NaN too
            raise ValueError(f"max_seconds must be 0 or more, not {self.max_seconds!r}")


@dataclass(slots=True)
class TrailEntry:
    var: int
    val: int
    reason: object  # None: decision; int: clause id; DSequent: deactivation
    level: int
    # set only on the key entry of a live target level: the clauses proved at it
    done: Optional[Dict[int, DSequent]] = None


@dataclass
class PqeResult:
    f1_star: Tuple[Lits, ...]
    stats: Dict[str, object]


_STAT_KEYS = (
    "decisions",
    "conflicts",
    "dseq_generated",
    "dseq_final",
    "dseq_reused",
    "deactivation_hints",
    "clauses_added_f1",
    "clauses_added_f2",
    "duplicates",
    "consistency_recoveries",
    "sat_calls",
    "max_target_depth",
    "primaries_proved",
)

class Engine:
    """Search state for one problem; drives the whole elimination."""

    def __init__(
        self,
        problem: EcnfProblem,
        config: Optional[SolverConfig] = None,
        on_dsequent: Optional[Callable[[DSequent, Callable[[], tuple]], None]] = None,
    ):
        self.problem = problem
        self.config = config or SolverConfig()
        self.on_dsequent = on_dsequent
        self.x_vars = problem.x_vars
        self.y_vars = problem.y_vars
        self._order = sorted(self.y_vars) + sorted(self.x_vars)  # the static branching order
        self.db = ClauseDb()
        # ascending: derived clauses get higher ids than every stored one
        self.f1_ids: List[int] = []
        for lits in problem.f1:
            self.f1_ids.append(self.db.add(lits, True).id)
        for lits in problem.f2:
            self.db.add(lits, False)
        self.store = DSequentStore(self.config.learn_depth_k)
        self.stats: Dict[str, object] = {k: 0 for k in _STAT_KEYS}
        # search state, reset per proof; the store owns the assignment
        self.assign: Assignment = self.db.values
        self.trail: List[TrailEntry] = []
        self.pos: Dict[int, int] = {}
        self.tlevels: List[TrailEntry] = []  # the key entries of the live target levels
        self.primary = 0
        self.target = 0
        self._deadline: Optional[float] = None
        self._rule_keys: Dict[str, str] = {}  # record rule -> its stats key
        self._falsifying: Dict[int, Assignment] = {}  # reason clause id -> its falsifying assignment

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def solve(self) -> PqeResult:
        t0 = time.monotonic()
        if self.config.max_seconds is not None:
            self._deadline = t0 + self.config.max_seconds
        # derived F1 clauses are appended as they arrive and get their turn
        # here; between proofs only the proved primaries, removed for good,
        # are inactive
        for cid in self.f1_ids:
            if not self.problem.is_x_clause(self.db.clause(cid).lits):
                continue
            if self.config.check_invariants:
                assert self.db.is_active(cid), f"primary {cid} is inactive before its turn"
            self.prove_redundant(cid)
            self.stats["primaries_proved"] += 1
            self._pop_suffix(0)
            self.db.remove(cid)
        f1_star = tuple(
            self.db.clause(cid).lits
            for cid in self.f1_ids
            if self.db.is_active(cid) and not self.problem.is_x_clause(self.db.clause(cid).lits)
        )
        self.stats["wall_time_s"] = time.monotonic() - t0
        return PqeResult(f1_star, dict(self.stats))

    # ------------------------------------------------------------------
    # the per-clause proof loop
    # ------------------------------------------------------------------

    def prove_redundant(self, primary: int) -> DSequent:
        """Drive the search until the primary target is unconditionally redundant."""
        self._pop_suffix(0)
        self.primary = primary
        self.target = primary
        if self.db.falsified:
            # nothing is assigned, so only a live empty clause is falsified
            empty = self.db.clause(min(self.db.falsified))
            self.stats["dseq_final"] += 1
            return self._emit(dsq.falsified_clause_dsequent(self.db.clause(primary), empty))
        pending: Optional[DSequent] = None
        while True:
            self._check_budget()
            learned = pending if pending is not None else self._bcp()
            if isinstance(learned, Clause):
                if learned.lits:
                    pending = self._bcktr_clause(learned)
                    continue
                # the search refuted the whole formula; everything is redundant
                learned = self._emit(dsq.falsified_clause_dsequent(self.db.clause(primary), learned))
            self.stats["dseq_final"] += 1
            self.store.consider(learned, len(self.tlevels))
            if learned.target == primary and not learned.conditional:
                return learned
            pending = self._bcktr_dseq(learned)

    def _check_budget(self) -> None:
        mc = self.config.max_conflicts
        if mc is not None and self.stats["conflicts"] > mc:
            raise ResourceLimit(f"conflict budget {mc} exhausted")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ResourceLimit(f"time budget {self.config.max_seconds}s exhausted")

    # ------------------------------------------------------------------
    # assignments and trail
    # ------------------------------------------------------------------

    def _apply(self, var: int, val: int, reason: object) -> None:
        # a decision, a record's flip or the target's own unit steers the
        # search, it does not follow from it: each starts a level
        level = self.trail[-1].level if self.trail else 0
        if reason is None or isinstance(reason, DSequent) or reason == self.target:
            level += 1
        self.pos[var] = len(self.trail)
        self.trail.append(TrailEntry(var, val, reason, level))
        self.db.assign(var, val)
        if self.config.check_invariants:
            self._audit_trail()

    def _pop_suffix(self, new_len: int) -> None:
        while len(self.trail) > new_len:
            e = self.trail.pop()
            self.db.unassign(e.var)
            del self.pos[e.var]
            if e.done is not None:  # a target level ends with its key
                self._drop_tlevel()
        if self.config.check_invariants:
            self._audit_trail()

    def _backtrack_to_level(self, level: int) -> None:
        """Pop every entry above the level."""
        n = len(self.trail)
        while n and self.trail[n - 1].level > level:
            n -= 1
        self._pop_suffix(n)

    def _pick_branch_var(self) -> Optional[int]:
        """The first unassigned variable of the static order."""
        assign = self.assign
        return next((v for v in self._order if v not in assign), None)

    # ------------------------------------------------------------------
    # BCP
    # ------------------------------------------------------------------

    def _bcp(self) -> Union[DSequent, Clause]:
        """Propagate to a condition and learn from it: each round applies
        one unit, the target's own last (on a quantified variable it starts
        ``_bcp_star``), and where nothing propagates it branches."""
        db = self.db
        while True:
            learned = self._round_condition()
            if learned is not None:
                return learned
            if not db.units:
                v = self._blocked_var()
                if v is not None:
                    return self._lrn_blocked(v)
                learned = self._branch()
                if learned is not None:
                    return learned
                continue
            cid = min(db.units)
            if cid == self.target and len(db.units) > 1:
                cid = min(c for c in db.units if c != cid)  # the target's goes last
            ul = db.free_literal(cid)
            var, val = abs(ul), satisfying_value(ul)
            if cid == self.target and var in self.x_vars:
                learned = self._bcp_star(var, val)
                if learned is not None:
                    return learned
                # None: a new target was picked; re-examine it
            else:
                self._apply(var, val, cid)

    def _round_condition(self) -> Union[None, DSequent, Clause]:
        if self.config.check_invariants:
            # a stable point between propagation steps
            self._audit_trail()
            self._audit_stack()
            self.db.audit_partners()
        db = self.db
        if db.is_satisfied(self.target):
            tgt = db.clause(self.target)
            var, val = self._satisfying_entry(tgt.lits)
            return self._rewrite(self._emit(dsq.atomic_first_kind(tgt, var, val)))
        if db.is_falsified(self.target):
            return self._lrn_falsified(self.target)
        if db.falsified:
            return self._lrn_falsified(min(db.falsified))
        return None

    def _audit_trail(self) -> None:
        """Trail, assignment and propagation state agree, and every entry
        lies at the level the level rule gives it (check_invariants)."""
        assert len(self.trail) == len(self.assign) == len(self.pos)
        below = 0  # level 0 may be empty (implications only); others may not
        for i, e in enumerate(self.trail):
            assert self.pos[e.var] == i
            assert self.assign[e.var] == e.val
            assert below <= e.level <= below + 1, f"entry {i} lies off its level"
            if e.reason is None or isinstance(e.reason, DSequent):
                assert e.level == below + 1, f"entry {i} steers but does not start its level"
            below = e.level
        db = self.db
        db.audit_counts()
        active = db.active_ids()
        assert db.falsified == {
            cid for cid in active if clause_falsified(db.clause(cid).lits, self.assign)
        }
        assert db.units == {
            cid for cid in active if unit_literal(db.clause(cid).lits, self.assign) is not None
        }
        for cid in db.units:
            assert db.free_literal(cid) == unit_literal(db.clause(cid).lits, self.assign), cid

    def _audit_stack(self) -> None:
        """Target levels match the soft-deleted clauses; an empty stack
        means the primary is the target."""
        assert self.tlevels or self.target == self.primary
        for key in self.tlevels:
            assert key.var in self.x_vars
            for cid in key.done:
                assert not self.db.is_active(cid)
        # a proved clause is done at one level only, so its record is unique
        done = [cid for key in self.tlevels for cid in key.done]
        assert len(done) == len(set(done))
        # only primaries and targets are soft-deleted, each with a quantified literal
        db = self.db
        for cid in db.all_ids():
            free_only = not self.problem.is_x_clause(db.clause(cid).lits)
            assert db.is_active(cid) or not free_only, f"free-only clause {cid} is inactive"

    def _branch(self) -> Optional[DSequent]:
        """Reuse a stored record the trail subsumes, or assign the branch
        variable at a level of its own.

        Records are consulted only where nothing propagates: reuse then
        replaces exploration, it never preempts a condition the search was
        about to find anyway. A record unit on the branch variable gives it
        the flipped value, the first such record stored being the reason;
        steering other variables would reshape the search tree, and on bad
        days cost more than the record saves. Without one the variable is
        decided 0.
        """
        var = self._pick_branch_var()
        if var is None:
            raise AssertionError("nothing to branch on and no backtracking condition")
        db, assign = self.db, self.assign
        val, reason = 0, None
        for rec in self.store.records_for(self.target):
            if self.config.check_invariants and self.config.learn_depth_k == 0:
                assert all(db.is_active(cid) for cid in rec.constraint), rec
            # the conditional first: it rules out most records at once
            if all(assign.get(v) == b for v, b in rec.conditional):
                if all(db.is_active(cid) for cid in rec.constraint):
                    self.stats["dseq_reused"] += 1
                    return self._rewrite(rec)
            elif reason is None:
                flip = dsq.unit_deactivating_assignment(rec, assign)
                if flip is not None and flip[0] == var and all(
                    db.is_active(cid) for cid in rec.constraint
                ):
                    val, reason = flip[1], rec
        self.stats["decisions" if reason is None else "deactivation_hints"] += 1
        self._apply(var, val, reason)
        return None

    def _blocked_var(self) -> Optional[int]:
        db = self.db
        tgt = db.clause(self.target)
        for lit in tgt.lits:
            v = abs(lit)
            if v in self.assign or v not in self.x_vars:
                continue
            blocked = db.open_partner(tgt.id, lit) is None
            if self.config.check_invariants:
                assert blocked == is_blocked(db, tgt, v), f"blocked test of {tgt.id} on {v}"
            if blocked:
                return v
        return None

    def _satisfying_entry(self, lits: Sequence[int]) -> Tuple[int, int]:
        """The earliest trail entry that satisfies one of the literals."""
        hits = [self.pos[abs(l)] for l in lits if self.assign.get(abs(l)) == satisfying_value(l)]
        if not hits:
            raise AssertionError("clause is not satisfied by the trail")
        e = self.trail[min(hits)]
        return e.var, e.val

    def _bcp_star(self, seed_var: int, seed_val: int) -> Union[None, DSequent, Clause]:
        """Clause-only propagation of the target's unit assignment.

        Every unit clause found here opens a target level: its resolvable
        partners must be proved redundant for the chain above to collapse.
        """
        self._apply(seed_var, seed_val, self.target)
        self._push_tlevel()
        db = self.db
        while db.units or db.falsified:
            if db.falsified:
                return self._lrn_falsified(min(db.falsified))
            cid = min(db.units)
            ul = db.free_literal(cid)
            self._apply(abs(ul), satisfying_value(ul), cid)
            if abs(ul) in self.x_vars:
                # redundancy branches only on quantified variables;
                # free-variable units are plain implications
                self._push_tlevel()
        return self._advance_target()

    def _push_tlevel(self) -> None:
        """Open a target level keyed by the last trail entry."""
        key = self.trail[-1]
        key.done = {}
        self.tlevels.append(key)
        if len(self.tlevels) > self.stats["max_target_depth"]:
            self.stats["max_target_depth"] = len(self.tlevels)

    # ------------------------------------------------------------------
    # target management
    # ------------------------------------------------------------------

    def _advance_target(self) -> Optional[DSequent]:
        """Make the lowest open partner of the top key the target (None), or
        pop the exhausted level and return the record for its key clause."""
        if not self.tlevels:
            self.target = self.primary
            return None
        top = self.tlevels[-1]
        # a clause done at this level is soft-deleted (``_bcktr_dseq``), so
        # it is no open partner
        nxt = self.db.open_partner(top.reason, top.var if top.val else -top.var)
        if nxt is not None:
            self.target = nxt
            return None
        # key clause blocked at its key variable: certify while everything the
        # partner records rely on is still assigned, then pop the level.
        # Entries above the key assignment are re-derivable (implications) or
        # re-decidable (decisions); if the certificate mentions them, the
        # caller steers into the complementary subspace instead.
        record = self._third_kind(self.db.clause(top.reason), top.var)
        if record is None:
            return self._handle_duplicate()
        self._pop_suffix(self.pos[top.var])  # ends the level
        self.target = top.reason
        return self._rewrite(record)

    def _drop_tlevel(self) -> None:
        """End the top target level: restore the clauses proved at it, unmark its key."""
        key = self.tlevels.pop()
        for cid in sorted(key.done):
            self.db.reactivate(cid)
        key.done = None

    def _third_kind(self, clause: Clause, v: int) -> Optional[DSequent]:
        """Certify a clause blocked at v from one record per partner on v.

        A live partner is satisfied off v: its atomic1 record is counted,
        and built only for an observer, and its satisfying entry goes
        straight into the merged conditional. An inactive partner was proved
        at a live level, as a proved primary has left the partner index for
        good, and brings its record from that level, which never depends on v:
        ``_rewrite``'s satisfied-target escape joins v out of it before
        ``_bcktr_dseq`` marks the partner done. None if the partner records
        cannot certify the clause, and the caller certifies semantically
        instead: usually their merged constraint holds the clause itself
        (self-support, which ``DSequent.make`` rejects), rarely they form a
        cycle with no application order (``check_consistency``).
        """
        db = self.db
        records = []
        satisfied: Assignment = {}
        for cid in db.partners(clause.id, clause.lit_on(v)):
            if db.is_active(cid):
                # its literal on v is false (v keys the level) or unassigned
                # (v is blocked), so the satisfying entry lies off v
                partner = db.clause(cid)
                sv, sval = self._satisfying_entry(partner.lits)
                satisfied[sv] = sval
                self._count("atomic1")
                if self.on_dsequent is not None:
                    self._show(dsq.atomic_first_kind(partner, sv, sval))
                continue
            rec = next((key.done[cid] for key in reversed(self.tlevels) if cid in key.done), None)
            if rec is None:
                raise AssertionError(f"partner {cid} is gone without a record")
            if v in rec.cond():
                raise AssertionError(f"partner {cid}'s record depends on {v}")
            records.append(rec)
        try:
            return self._emit(dsq.atomic_third_kind(clause, v, self.x_vars, records, satisfied))
        except dsq.InconsistentInputs:
            self.stats["consistency_recoveries"] += 1
            return None

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------

    def _lrn_blocked(self, v: int) -> DSequent:
        """The record for a target blocked at its unassigned quantified v."""
        tgt = self.db.clause(self.target)
        record = self._third_kind(tgt, v)
        if record is None:
            return self._handle_duplicate()
        return self._rewrite(record)

    def _lrn_falsified(self, cid: int) -> Union[DSequent, Clause]:
        """Learn from a falsified clause: a conflict clause, or a record for
        the target when the walk stops at a record-derived assignment.

        When the falsified clause is the target and the walk's resolvent is
        already stored (typically the target itself, its last free literal
        flipped by a record), a second walk keeps every free literal and
        resolves only quantified ones. Its resolvent B, false under the
        free assignment alone, carries the record. The SAT fallback
        (``_handle_duplicate``) is left for that walk meeting a quantified
        decision or record flip and for a stored resolvent of another
        clause.
        """
        self.stats["conflicts"] += 1
        lits, f1_side, at_record = self._conflict_walk(cid)
        tgt = self.db.clause(self.target)
        if at_record and cid != self.target:
            seed = self._emit(dsq.falsified_clause_dsequent(tgt, self.db.clause(cid)))
            return self._rewrite(seed)
        if self.db.find_any(lits) is None:
            clause = self._add_derived_clause(lits, f1_side)
            if not at_record:
                return clause
        elif cid == self.target:
            lits, f1_side, _ = self._conflict_walk(cid, keep_free=True)
            if self.problem.is_x_clause(lits):
                return self._handle_duplicate()
            # B holds no quantified literal: it is never the target, and a
            # stored B is active (``_audit_stack``)
            clause = self._add_derived_clause(lits, f1_side)
            if self.config.check_invariants:
                assert clause_falsified(lits, self.assign), f"free resolvent {lits} is not false"
        else:
            return self._handle_duplicate()
        # the falsified clause is the target itself: the record rests on the
        # derived clause, which stays in the formula as a helper
        return self._rewrite(self._emit(dsq.falsified_clause_dsequent(tgt, clause)))

    def _conflict_walk(self, start_cid: int, keep_free: bool = False) -> Tuple[Lits, bool, bool]:
        """Resolve the falsified clause backwards through clause reasons.

        Walks the trail down once, as ``satcore._Solver._analyze`` does (a
        reason's other literals lie below its entry). Stops at a real
        decision (a conflict clause has been built) or at a
        D-sequent-derived assignment (clause learning is impossible there).
        With ``keep_free`` it passes over entries on free variables, so
        their literals stay whatever their reasons: it stops only on a
        quantified variable, and a walk to the bottom leaves free literals.
        Returns the resolvent, whether F1 took part, and whether a record stopped it.
        """
        start = self.db.clause(start_cid)
        work = set(start.lits)  # all false
        f1_side = start.f1_side
        x_vars = self.x_vars
        for entry in reversed(self.trail):
            lit = -entry.var if entry.val else entry.var
            if lit not in work or (keep_free and entry.var not in x_vars):
                continue
            if entry.reason is None or isinstance(entry.reason, DSequent):
                return tuple(sorted(work, key=abs)), f1_side, entry.reason is not None
            reason = self.db.clause(entry.reason)
            f1_side = f1_side or reason.f1_side
            work.remove(lit)
            work.update(l for l in reason.lits if l != -lit)
        return tuple(sorted(work, key=abs)), f1_side, False

    def _rewrite(self, ds: DSequent) -> DSequent:
        """Eliminate derived assignments from the conditional, latest first.

        Stops at decision-like entries: real decisions, assignments derived
        from the target clause itself, deactivations from records for other
        targets, and key-variable assignments of live target levels (unless
        a satisfied-target join can remove them for free).

        Walks the trail down once (see Records). Each step joins the record
        with a partner record on the entry: the deactivation record that
        made it, a record for the subspace falsifying its reason clause, or
        the target's own satisfied-clause record. The working record is a
        conditional dict and a constraint set, updated in place; the
        intermediate records are built only for the observers (``_emit``).
        """
        assign, pos, trail = self.assign, self.pos, self.trail
        if not all(assign.get(v) == b for v, b in ds.conditional):
            return ds  # conditional left the trail subspace; nothing to do
        target = ds.target
        tgt = self.db.clause(target)
        observed = self.on_dsequent is not None
        cond = dict(ds.conditional)
        constraint = set(ds.constraint)
        joined = False
        for limit in range(max(map(pos.__getitem__, cond), default=-1), -1, -1):
            entry = trail[limit]
            var = entry.var
            if var not in cond:
                continue
            b, reason = entry.val, entry.reason
            if reason is None:
                break
            partner = None  # (conditional items, constraint, rule; None: a stored record)
            if isinstance(reason, DSequent):
                if self.config.check_invariants:
                    assert (var, 1 - b) in reason.conditional, f"record of {var} does not flip it"
                if reason.target == target and self._below(reason.conditional, var, limit):
                    partner = (reason.conditional, reason.constraint, None)
            elif reason != target and entry.done is None:
                falsifying = self._falsifying.get(reason)
                if falsifying is None:
                    falsifying = falsifying_assignment(self.db.clause(reason).lits)
                    self._falsifying[reason] = falsifying
                if self.config.check_invariants:
                    assert falsifying.get(var) == 1 - b and self._below(
                        falsifying.items(), var, limit
                    ), f"reason clause {reason} of {var} is not false below it"
                partner = (falsifying.items(), (reason,), "atomic2")
            if partner is None:
                # satisfied-target escape: free of charge, and the only way
                # out for key-variable assignments (their reason clause must
                # never enter a constraint its own certificate depends on)
                lt = tgt.lit_on(var)
                if lt is None or satisfying_value(lt) == b:
                    break
                partner = (((var, 1 - b),), (), "atomic1")
            items, extra, rule = partner
            cond.update(items)  # sets var to 1 - b, which goes next
            del cond[var]
            constraint.update(extra)
            joined = True
            if rule is not None:
                self._count(rule)
                if observed:
                    if rule == "atomic1":
                        self._show(dsq.atomic_first_kind(tgt, var, 1 - b))
                    else:
                        self._show(dsq.falsified_clause_dsequent(tgt, self.db.clause(reason)))
            self._count("join")
            if observed:
                self._show(DSequent.make(target, cond, constraint, "join"))
            if not cond:
                break
        return DSequent.make(target, cond, constraint, "join") if joined else ds

    def _below(self, items: Iterable[Tuple[int, int]], var: int, limit: int) -> bool:
        """Whether a record's assignments other than var are on the trail
        below position ``limit``: convoluted backtracking histories can
        leave a record's context, or reassign it above the entry."""
        assign, pos = self.assign, self.pos
        return all(v == var or (assign.get(v) == val and pos[v] < limit) for v, val in items)

    # ------------------------------------------------------------------
    # backtracking
    # ------------------------------------------------------------------

    def _bcktr_dseq(self, ds: DSequent) -> Optional[DSequent]:
        """Backtrack on a record for the current target.

        While its conditional reaches above the point of origin (the top
        level's key-variable assignment; before the first trail entry for
        the primary) the proof is not finished: flip the deepest such
        assignment, backing up no further than that. This is chronological
        on purpose: a jump below other branch points would discard steering
        that only a stored record could re-derive, losing the tree
        discipline that bounds the search. A variable of the conditional
        that is unassigned goes first: the lowest one is flipped where the
        trail stands. The flip is applied at once, with the record as its
        reason, at a level of its own. Otherwise mark the target done and
        move on.
        """
        if self.tlevels:
            top = self.tlevels[-1]
            poo, floor = self.pos[top.var], top.level
        else:
            top, poo, floor = None, -1, 0
        cond = ds.cond()
        missing = [v for v in cond if v not in self.assign]
        if missing:
            var = min(missing)
            self._apply(var, 1 - cond[var], ds)
            return None
        above = [v for v in cond if self.pos[v] > poo]
        if above:
            var = max(above, key=lambda v: self.pos[v])
            rest = [self.trail[self.pos[v]].level for v in cond if v != var]
            here = self.trail[self.pos[var]].level
            self._backtrack_to_level(max([floor, here - 1] + rest))
            if var in self.assign:
                raise AssertionError("record not asserting within the backtrack scope")
            self._apply(var, 1 - cond[var], ds)
            return None
        # proved up to the point of origin; an empty conditional for the
        # primary ended its proof before this, so a level is there to pop
        self._pop_suffix(poo + 1)
        top.done[ds.target] = ds
        self.db.deactivate(ds.target)
        return self._advance_target()

    def _bcktr_clause(self, clause: Clause) -> Optional[DSequent]:
        """Backtrack on a conflict clause for the current target.

        Jumps to the clause's second-deepest level and applies its deepest
        literal there, with the clause as its reason: clauses persist in the
        formula and re-propagate on arrival. The jump ends every target
        level whose key variable it unassigns (``_pop_suffix``), its proved
        clauses returning to the formula (the new clause covers the whole
        subspace by itself); the next target is then picked with the
        asserted literal on the trail.
        """
        old_level = self.tlevels[-1] if self.tlevels else None
        levels = sorted((self.trail[self.pos[abs(l)]].level, abs(l), l) for l in clause.lits)
        _, _, asserting = levels[-1]
        self._backtrack_to_level(levels[-2][0] if len(levels) > 1 else 0)
        self._apply(abs(asserting), satisfying_value(asserting), clause.id)
        if self.tlevels and self.tlevels[-1] is old_level:
            return None  # same level, same target
        return self._advance_target()

    # ------------------------------------------------------------------
    # duplicate recovery
    # ------------------------------------------------------------------

    def _handle_duplicate(self) -> DSequent:
        """Decide the subspace semantically where the search cannot go on.

        Reached by partner records that cannot certify a blocked clause
        (``_third_kind``: self-support or a cycle), by a falsified target
        whose walk keeping free literals meets a quantified decision or
        record flip, and by a stored resolvent of another falsified clause
        (on satred, a removed primary or a clause proved at a live level).
        Back out of all quantified-variable assignments and secondary targets,
        then ask a SAT check whether the formula holds under the remaining
        free-variable assignments; either a blocking free-variable clause or a
        shrunk satisfying witness certifies the primary target's redundancy.
        """
        self.stats["duplicates"] += 1
        # Quantified entries go from the top only: free entries above one stay
        # as assumptions. Popping to the first quantified entry would end every
        # level through _pop_suffix, but asks SAT about a wider subspace (on
        # `gen circuit --inputs 7 --gates 14 --seed 1170 --drop 0.2`, 9
        # fallbacks become 35), so the levels left end here by hand.
        while self.trail and self.trail[-1].var in self.x_vars:
            self._pop_suffix(len(self.trail) - 1)
        while self.tlevels:
            self._drop_tlevel()
        self.target = self.primary
        primary_clause = self.db.clause(self.primary)
        live = [self.db.clause(cid).lits for cid in self.db.active_ids()]
        assumps = [e.var if e.val else -e.var for e in self.trail if e.var in self.y_vars]
        self.stats["sat_calls"] += 1
        res = sat_solve(live, assumps)
        if not res.satisfiable:
            lits = tuple(-l for l in sorted(res.core, key=abs))
            clause = self._add_derived_clause(lits, True)
            return self._rewrite(self._emit(dsq.falsified_clause_dsequent(primary_clause, clause)))
        # the model satisfies every live clause, and so does each shrunk
        # one: dropping v can only unsatisfy the live clauses v made true
        db = self.db
        partial = dict(res.model)
        for v in sorted(mv for mv in res.model if mv in self.y_vars):
            dropped = partial.pop(v)
            made_true = db.occurrences(v if dropped else -v)
            if not all(
                clause_satisfied(db.clause(cid).lits, partial)
                for cid in made_true
                if db.is_active(cid)
            ):
                partial[v] = dropped
        y_star = {v: val for v, val in partial.items() if v in self.y_vars}
        return self._rewrite(self._emit(DSequent.make(self.primary, y_star, (), "sat-witness")))

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _add_derived_clause(self, lits: Lits, f1_side: bool) -> Clause:
        if self.config.check_invariants:
            assert lits == canonical_lits(lits), f"derived clause {lits} is not canonical"
        before = len(self.db)
        clause = self.db.add(lits, f1_side)
        # an implied clause leaves every learned record valid: none is touched
        if len(self.db) > before:
            if f1_side:
                self.f1_ids.append(clause.id)
                self.stats["clauses_added_f1"] += 1
            else:
                self.stats["clauses_added_f2"] += 1
        return clause

    def _emit(self, ds: DSequent) -> DSequent:
        """Count a derived record and show it to the observers."""
        self._count(ds.rule)
        self._show(ds)
        return ds

    def _count(self, rule: str) -> None:
        self.stats["dseq_generated"] += 1
        key = self._rule_keys.get(rule)
        if key is None:
            key = self._rule_keys[rule] = f"dseq_{rule.replace('-', '_')}"
        self.stats[key] = self.stats.get(key, 0) + 1

    def _show(self, ds: DSequent) -> None:
        if self.on_dsequent is not None:
            self.on_dsequent(ds, self._live_formula)

    def _live_formula(self) -> tuple:
        """((id, lits), ...) of the active clauses and those proved at live levels."""
        live = set(self.db.active_ids()) | {cid for key in self.tlevels for cid in key.done}
        return tuple((cid, self.db.clause(cid).lits) for cid in sorted(live))


def solve_pqe(
    problem: EcnfProblem,
    config: Optional[SolverConfig] = None,
    on_dsequent: Optional[Callable[[DSequent, Callable[[], tuple]], None]] = None,
) -> PqeResult:
    """Take the first block out of the scope of the quantifiers.

    Returns the free-variable clauses equivalent to the first block under
    the quantified remainder, plus run statistics. Raises ResourceLimit if
    a configured budget is exhausted; no partial answer is ever returned.
    ``on_dsequent(ds, live)`` sees every derived record; ``live()``, valid
    only inside the call, returns the formula the record was derived in.
    """
    return Engine(problem, config, on_dsequent).solve()
