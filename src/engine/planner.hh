/**
 * @file
 * Profile-driven per-component engine planning.
 *
 * PR 7's analysis layer computes a ComponentProfile for every
 * connected component — class (literal-chain / bounded-regex /
 * counter-coupled / cyclic-unbounded), mandatory literal factor,
 * match-length and anchoring intervals, a determinization blowup
 * estimate. This module turns those facts into wall-clock throughput:
 * planComponents() assigns each component the cheapest backend that
 * is exact for it, and PlannedEngine / PlannedSession execute the
 * resulting mixed plan with results bit-identical (on the semantic
 * fields: symbols, reports, reportCount, reportingCycles, byCode,
 * guardStatus) to the serial NfaEngine after canonicalizeReports().
 * totalEnabled is engine-defined, as for MultiDfaEngine: skipped
 * regions and never-simulated components contribute nothing.
 *
 * The decision table (docs/ARCHITECTURE.md "Engine planning &
 * prefilters" is the narrative version):
 *
 *   reportCount == 0                  -> kSkip        (never reports)
 *   counter-coupled                   -> kInterpreter (exact counters)
 *   cyclic-unbounded, small blowup    -> kLazyDfa
 *   cyclic-unbounded, huge blowup     -> kInterpreter
 *   anchored, bounded depth           -> kAnchoredPrefix
 *   literal-chain, strong literal,
 *     bounded matches, all-input      -> kPrefilter
 *   everything else                   -> kInterpreter
 *
 * Guard semantics: a planned run polls the caller's RunGuard on the
 * same kGuardCheckIntervalSymbols clock as the serial engines (every
 * backend polls, and a sweep covers skipped/absent work), and on a
 * stop all backends are reconciled to the shortest consumed prefix —
 * the same contract ParallelRunner::simulateSharded() keeps.
 */

#ifndef AZOO_ENGINE_PLANNER_HH
#define AZOO_ENGINE_PLANNER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/lazy_dfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/prefilter.hh"
#include "engine/report.hh"
#include "engine/streaming.hh"

namespace azoo {

/** Execution backend a component is planned onto. */
enum class PlanBackend : uint8_t {
    kPrefilter = 0,      ///< literal scan + windowed interpreter
    kAnchoredPrefix = 1, ///< interpreter over a bounded input prefix
    kLazyDfa = 2,        ///< lazy-DFA hybrid
    kInterpreter = 3,    ///< enabled-set interpreter
    kSkip = 4,           ///< no reporting member: never simulated
};

inline constexpr size_t kPlanBackends = 5;

/** "prefilter" / "anchored-prefix" / "lazy-dfa" / "interpreter" /
 *  "skip". */
const char *planBackendName(PlanBackend b);

/** One-letter census code: P / A / D / I / S. */
char planBackendCode(PlanBackend b);

/** Planning knobs. */
struct PlanOptions {
    /** Allow the literal-prefilter backend (`--no-prefilter` routes
     *  literal chains to the interpreter instead). */
    bool enablePrefilter = true;
    /** Shortest mandatory literal worth scanning for. */
    uint32_t minScanLiteral = 4;
    /** Scan-literal length cap (longer factors are truncated; the
     *  verify step inside the window restores exactness). */
    uint32_t maxScanLiteral = 8;
    /** Cyclic components with blowupLog2 above this interpret rather
     *  than use the lazy DFA. The estimate saturates at 32, so the
     *  default keeps every cyclic component on the lazy DFA: gap
     *  self-loops are absorbing, the set of state-sets actually
     *  visited stays small, and a saturated static estimate says
     *  nothing about the run-time working set. */
    uint32_t maxLazyBlowupLog2 = 32;
    /** Transition-cache budget of the lazy-DFA backend. */
    size_t lazyCacheBytes = 8u << 20;
    /** Profile-inference knobs (when the planner infers them). */
    analysis::InferOptions infer;
};

/** Where one component was routed. */
struct ComponentDecision {
    uint32_t componentId = 0;
    PlanBackend backend = PlanBackend::kInterpreter;
};

/** A full per-component assignment. */
struct EnginePlan {
    std::vector<ComponentDecision> decisions;
    std::array<uint32_t, kPlanBackends> backendCount{};

    /** Compact census like "P12/D3/I1" (zero counts omitted; "-"
     *  when there are no components). */
    std::string census() const;
};

/**
 * Assign a backend to every component of @p a. @p profiles must come
 * from analysis::inferProfiles() on the same automaton (they are
 * indexed by componentId). Deterministic.
 */
EnginePlan planComponents(const Automaton &a,
                          const std::vector<analysis::ComponentProfile>
                              &profiles,
                          const PlanOptions &opts = PlanOptions());

/**
 * Executes an EnginePlan: one engine per backend group over a
 * sub-automaton of that group's components, merged into a single
 * canonical SimResult.
 *
 * simulate() mutates per-engine state (lazy cache, scratches), so a
 * PlannedEngine must not be shared by concurrently simulating threads
 * — ParallelRunner builds one per worker slot. Reports come out in
 * canonical (offset, element, code) order with original element ids.
 */
class PlannedEngine
{
  public:
    /** Infer profiles internally. The automaton must outlive the
     *  engine only during construction (groups are copied out). */
    explicit PlannedEngine(const Automaton &a,
                           const PlanOptions &opts = PlanOptions());

    /** Plan from precomputed profiles (inferProfiles(a) — sharing one
     *  inference across many engines). */
    PlannedEngine(const Automaton &a,
                  const std::vector<analysis::ComponentProfile> &profiles,
                  const PlanOptions &opts = PlanOptions());

    SimResult simulate(const uint8_t *input, size_t len,
                       const SimOptions &opts = SimOptions());

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions())
    {
        return simulate(input.data(), input.size(), opts);
    }

    const EnginePlan &plan() const { return plan_; }

    /** Scan literals the prefilter backend sweeps for (0 when no
     *  component was planned onto it). */
    size_t prefilterPatterns() const
    {
        return prefilter_ ? prefilter_->patternCount() : 0;
    }

    /** Prefilter effectiveness of the most recent simulate() (all
     *  zero when the plan has no prefilter group). */
    const PrefilterStats &lastPrefilterStats() const
    {
        return lastPrefilterStats_;
    }

  private:
    void build(const Automaton &a,
               const std::vector<analysis::ComponentProfile> &profiles,
               const PlanOptions &opts);

    PlanOptions popts_;
    EnginePlan plan_;

    std::unique_ptr<PrefilteredNfa> prefilter_;
    EngineScratch prefilterScratch_;

    std::unique_ptr<Automaton> anchoredSub_;
    std::vector<ElementId> anchoredToGlobal_;
    std::unique_ptr<NfaEngine> anchoredEngine_;
    EngineScratch anchoredScratch_;
    /** Input prefix after which every anchored component has
     *  quiesced. */
    uint64_t anchoredPrefix_ = 0;

    std::unique_ptr<Automaton> lazySub_;
    std::vector<ElementId> lazyToGlobal_;
    std::unique_ptr<LazyDfaEngine> lazyEngine_;

    std::unique_ptr<Automaton> interpSub_;
    std::vector<ElementId> interpToGlobal_;
    std::unique_ptr<NfaEngine> interpEngine_;
    EngineScratch interpScratch_;

    PrefilterStats lastPrefilterStats_;
};

/**
 * Streaming counterpart of PlannedEngine: chunked feeding with
 * persistent state, same canonical results as a monolithic planned
 * run (and therefore as serial NfaEngine + canonicalizeReports()).
 *
 * The prefilter group streams through PrefilteredNfa::Session; every
 * other non-skip group streams through one merged StreamingSession
 * (the lazy DFA has no incremental API, so streamed plans trade its
 * speed for interpretation — block mode keeps it). The session owns
 * the guard poll clock: options.guard is polled every
 * kGuardCheckIntervalSymbols stream symbols regardless of chunking,
 * exactly like StreamingSession.
 */
class PlannedSession
{
  public:
    explicit PlannedSession(const Automaton &a,
                            const PlanOptions &opts = PlanOptions());
    PlannedSession(const Automaton &a,
                   const std::vector<analysis::ComponentProfile>
                       &profiles,
                   const PlanOptions &opts = PlanOptions());

    /** Feed a chunk; returns bytes consumed (short exactly when
     *  options.guard stopped the session). */
    size_t feed(const uint8_t *data, size_t len);

    size_t
    feed(const std::vector<uint8_t> &data)
    {
        return feed(data.data(), data.size());
    }

    /** True once options.guard has stopped this session. */
    bool stopped() const { return !guardStatus_.ok(); }

    /** Merged canonical results over the consumed prefix (built on
     *  each call; offsets are absolute stream offsets). */
    SimResult results() const;

    uint64_t offset() const { return t_; }

    void reset();

    /** Resident bytes: sub-automaton copies, the rest-group
     *  interpreter session, and the prefilter's shared tables +
     *  per-session window state. The serve layer's admission
     *  estimate is validated against this. */
    size_t footprintBytes() const;

    const EnginePlan &plan() const { return plan_; }

    const PrefilterStats &
    prefilterStats() const
    {
        static const PrefilterStats kNone;
        return prefilterSession_ ? prefilterSession_->stats() : kNone;
    }

    SimOptions options;

  private:
    void build(const Automaton &a,
               const std::vector<analysis::ComponentProfile> &profiles,
               const PlanOptions &opts);

    EnginePlan plan_;

    std::unique_ptr<PrefilteredNfa> prefilter_;
    std::unique_ptr<PrefilteredNfa::Session> prefilterSession_;

    /** Anchored + lazy + interpreter components merged: everything
     *  that needs per-symbol streaming state. */
    std::unique_ptr<Automaton> restSub_;
    std::vector<ElementId> restToGlobal_;
    std::unique_ptr<StreamingSession> restSession_;

    uint64_t t_ = 0;
    Status guardStatus_;
};

} // namespace azoo

#endif // AZOO_ENGINE_PLANNER_HH
