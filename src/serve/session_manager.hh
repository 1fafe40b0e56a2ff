/**
 * @file
 * Session lifecycle for the match service: a reset-reuse pool of
 * session cursors and the admission controller.
 *
 * Two separable robustness mechanisms live here, used by
 * serve::Server but testable without sockets:
 *
 *  - MatchSessionPool compiles its generation once — one
 *    PlannedProgram over kNfa's fixed all-interpreter plan or kAuto's
 *    profile plan, built when it creates its first session — and
 *    every session is a PlannedSession cursor over that shared,
 *    immutable program, so the server's data path has one shape.
 *    Opening a session allocates only its scratch and window state
 *    (no compile), reset() is O(counters), and the pool recycles
 *    cursors across client sessions. The pool's correctness contract — a reused session behaves
 *    bit-identically to a fresh one, including after a guard stop —
 *    is what the reset-reuse regression in tests/test_streaming.cc
 *    pins across the zoo.
 *
 *  - SessionManager is the admission controller: a hard session-table
 *    cap and a memory budget translated into a session cap
 *    (budget / per-session cursor bytes), with strict-priority shedding
 *    — when the table is full, a newcomer of strictly higher priority
 *    evicts the lowest-priority admitted session (which gets an
 *    explicit kShedOverload reply, never a silent drop); an equal- or
 *    lower-priority newcomer is rejected with a status naming the
 *    exhausted resource. Admission never allocates unboundedly: every
 *    reject happens before an engine session or queue is created.
 */

#ifndef AZOO_SERVE_SESSION_MANAGER_HH
#define AZOO_SERVE_SESSION_MANAGER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "analysis/profile.hh"
#include "engine/planner.hh"
#include "engine/report.hh"
#include "serve/protocol.hh"

namespace azoo {
namespace serve {

struct CompiledRuleset; // serve/ruleset.hh

/** Resource bounds and QoS knobs for one server instance. */
struct ServeLimits {
    /** Hard cap on concurrently admitted sessions. */
    size_t maxSessions = 256;
    /** Per-session input-queue bound: past this many buffered bytes
     *  the server stops reading the client's socket (backpressure)
     *  until a worker drains the queue. */
    size_t queueBudgetBytes = 256u << 10;
    /** Total memory budget for session state (queues + engine
     *  sessions + reply buffers). Admission derives a session cap
     *  from it; 0 = no memory-derived cap. */
    size_t memoryBudgetBytes = 256u << 20;
    /** Per-session wall-clock deadline (RunGuard); 0 = none. */
    int64_t sessionDeadlineMs = 0;
    /** Per-session input-symbol budget (RunGuard); 0 = none. */
    uint64_t sessionSymbolBudget = 0;
    /** Report records a REPLY may carry (count is always exact). */
    size_t maxReportRecords = 4096;
};

/**
 * Free-list of PlannedSession cursors over one ruleset generation.
 * acquire() hands out a reset session with default options;
 * release() returns it for the next client. A session's
 * footprintBytes() (its own scratch, window and report buffers; the
 * shared program excluded) is what tests hold the admission unit
 * to. Not thread-safe: the server's event loop
 * owns acquire/release (workers only touch a session between them,
 * and sessions on different workers only read the shared program).
 *
 * The pool is keyed by generation by construction: it owns a
 * RulesetGeneration pin and the one program compiled from it, every
 * session it creates is a cursor over that program, and a hot reload
 * swaps in a whole new pool — so a pooled session can never be
 * reused across rulesets, and a retired generation dies exactly when
 * its pool (and therefore its last session) does.
 */
class MatchSessionPool
{
  public:
    /** Pin @p gen and serve sessions over it. Profiles for kAuto
     *  come from the generation (inferred at compile/load time, once,
     *  not per session); the program is compiled by the first
     *  acquire(), not here. @p maxReportRecords is the effective
     *  per-reply record cap (ServeLimits::maxReportRecords), sizing
     *  the report-buffer term of estimatedSessionBytes(). */
    explicit MatchSessionPool(
        std::shared_ptr<const CompiledRuleset> gen,
        size_t maxReportRecords = ServeLimits().maxReportRecords);

    /** Compatibility path for callers with a bare automaton: wraps
     *  @p a (copied) in an inline epoch-1 generation. */
    MatchSessionPool(const Automaton &a, EngineKind engine,
                     const PlanOptions &popts = PlanOptions(),
                     size_t maxReportRecords =
                         ServeLimits().maxReportRecords);

    ~MatchSessionPool();

    std::unique_ptr<PlannedSession> acquire();
    void release(std::unique_ptr<PlannedSession> s);

    /** Resident bytes of one running session, from the cursor's
     *  layout (PlannedSession::cursorBytes()), computed at
     *  construction without compiling anything; the admission
     *  controller's memory unit. */
    size_t estimatedSessionBytes() const { return sessionBytes_; }


    /** Sessions constructed so far (reuse keeps this at the
     *  concurrency high-water mark, not the session count). */
    size_t created() const { return created_; }

    /** Epoch of the pinned generation. */
    uint64_t epoch() const;

  private:
    std::shared_ptr<const CompiledRuleset> gen_;
    /** The generation's program, compiled by the first acquire();
     *  sessions co-own it. */
    std::shared_ptr<const PlannedProgram> program_;
    std::vector<std::unique_ptr<PlannedSession>> free_;
    size_t created_ = 0;
    size_t sessionBytes_ = 0;
};

/** No session (shed-victim "none" value). */
inline constexpr uint64_t kNoSession = ~uint64_t(0);

/** Outcome of an admission attempt. */
struct AdmitDecision {
    bool admitted = false;
    /** When !admitted: kRejectedBusy / kRejectedMemory /
     *  kRejectedDrain. */
    ReplyStatus reject = ReplyStatus::kRejectedBusy;
    /** When admitted at capacity: the strictly-lower-priority session
     *  to shed first (kNoSession when capacity was free). */
    uint64_t shedVictim = kNoSession;
};

/**
 * Admission controller. Pure bookkeeping — the server enacts the
 * decisions (sends rejects, sheds victims) and reports lifecycle
 * transitions back. Sessions are identified by the server's ids.
 */
class SessionManager
{
  public:
    SessionManager(const ServeLimits &limits, size_t perSessionBytes);

    /**
     * Decide admission for a newcomer at @p priority (higher value =
     * more important). @p draining rejects everything (kRejectedDrain).
     * At capacity, a strictly-lower-priority admitted session is
     * offered as shedVictim; the caller must retire() it.
     */
    AdmitDecision tryAdmit(uint8_t priority, bool draining) const;

    /** Record an admitted session. */
    void admit(uint64_t id, uint8_t priority);

    /** Record the end of an admitted session (replied, shed, or
     *  dropped). Unknown ids are ignored (retire is idempotent). */
    void retire(uint64_t id);

    size_t active() const { return sessions_.size(); }

    /** Effective session cap: min(maxSessions, memory-derived). */
    size_t capacity() const { return capacity_; }

    /** Recompute capacity for a new per-session footprint (a hot
     *  ruleset reload changes the engine's memory unit). Sessions
     *  already admitted stay admitted — only future tryAdmit() calls
     *  see the new cap. */
    void setPerSessionBytes(size_t perSessionBytes);

    const ServeLimits &limits() const { return limits_; }

  private:
    ServeLimits limits_;
    size_t capacity_;
    std::map<uint64_t, uint8_t> sessions_; ///< id -> priority
};

} // namespace serve
} // namespace azoo

#endif // AZOO_SERVE_SESSION_MANAGER_HH
