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
 * is exact for it. A PlannedProgram compiles the plan once; a
 * PlannedSession is a cursor over it, and PlannedEngine (block mode)
 * is a session fed its input as one chunk. Both give results
 * bit-identical (on the semantic fields: symbols, reports,
 * reportCount, reportingCycles, byCode, guardStatus) to the serial
 * NfaEngine after canonicalizeReports(). totalEnabled is
 * engine-defined, as for MultiDfaEngine: skipped regions and
 * never-simulated components contribute nothing. A plan need not
 * come from profiles: EngineKind::kNfa and kLazyDfa run fixedPlan(),
 * which skips nothing, so their totalEnabled is the interpreter's
 * too.
 *
 * The decision table (docs/ARCHITECTURE.md "Engine planning &
 * prefilters" is the narrative version):
 *
 *   reportCount == 0                  -> kSkip        (never reports)
 *   counter-coupled                   -> kInterpreter (exact counters)
 *   cyclic-unbounded                  -> kLazyDfa
 *   literal-chain, literal of >= 4
 *     bytes, bounded matches,
 *     all-input                       -> kPrefilter
 *   everything else                   -> kInterpreter
 *
 * Guard semantics: the session owns the poll clock. It polls the
 * caller's RunGuard every kGuardCheckIntervalSymbols stream symbols,
 * the serial engines' poll points, whatever the chunking and even
 * where every backend is absent or skipping, and stops every backend
 * at the same point. Reports from every backend group are counted
 * together by tallyReports() over the consumed prefix, in canonical
 * order, as they settle.
 */

#ifndef AZOO_ENGINE_PLANNER_HH
#define AZOO_ENGINE_PLANNER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
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
#include "util/status.hh"

namespace azoo {

/** Execution backend a component is planned onto. */
enum class PlanBackend : uint8_t {
    kPrefilter = 0,      ///< literal scan + windowed interpreter
    /** Never planned: anchored bounded components interpret. The
     *  slot keeps its name and census letter so per-backend
     *  counters and metric names stay stable. */
    kAnchoredPrefix = 1,
    kLazyDfa = 2,        ///< lazy DFA (LazyDfaProgram)
    kInterpreter = 3,    ///< enabled-set interpreter
    kSkip = 4,           ///< no reporting member: never simulated
};

inline constexpr size_t kPlanBackends = 5;

/** "prefilter" / "anchored-prefix" / "lazy-dfa" / "interpreter" /
 *  "skip". */
const char *planBackendName(PlanBackend b);

/** One-letter census code: P / A / D / I / S. */
char planBackendCode(PlanBackend b);

/** The one engine selector (ParallelOptions, the serve RulesetSpec,
 *  every `--engine`). Each consumer rejects the kinds it does not run
 *  by name; none substitutes another engine. */
enum class EngineKind : uint8_t {
    /** The enabled-set interpreter: NfaEngine (the serial
     *  reference), or fixedPlan()'s all-interpreter program on
     *  PlannedEngine/PlannedSession cursors. */
    kNfa,
    kMultiDfa, ///< eager per-component DFAs (MultiDfaEngine)
    /** fixedPlan(): the lazy DFA beside the interpreter for counter
     *  components, on PlannedEngine/PlannedSession cursors. */
    kLazyDfa,
    kAuto,     ///< profile-planned backends (PlannedEngine/Session)
};

/** "nfa" / "multidfa" / "lazydfa" / "auto". */
const char *engineName(EngineKind k);

/** Parse nfa|multidfa|dfa|lazydfa|auto ("dfa" aliases multidfa)
 *  against the kinds the caller @p runs; any other name is
 *  kInvalidArgument, and the message lists the names of @p runs. */
Expected<EngineKind>
parseEngine(const std::string &name,
            std::initializer_list<EngineKind> runs = {
                EngineKind::kNfa, EngineKind::kMultiDfa,
                EngineKind::kLazyDfa, EngineKind::kAuto});

/** Planning knobs. */
struct PlanOptions {
    /** Allow the literal-prefilter backend (`--no-prefilter` routes
     *  literal chains to the interpreter instead). */
    bool enablePrefilter = true;
    /** Transition-cache budget of the lazy-DFA backend's block runs
     *  (PlannedEngine's cache, kept by the PlannedProgram), beyond
     *  which the run hands off to the interpreter. A streamed
     *  PlannedSession's budget is derived from the lazy group's size
     *  instead; see PlannedSession. */
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

    /** Route the next component, @p componentId, to @p backend. */
    void
    add(uint32_t componentId, PlanBackend backend)
    {
        decisions.push_back({componentId, backend});
        ++backendCount[static_cast<size_t>(backend)];
    }

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
 * The fixed plan @p kind runs @p a on, needing no profiles: under
 * kNfa every component is interpreted; under kLazyDfa components
 * with a counter (which cannot be determinized) are interpreted and
 * every other one runs on the lazy DFA. Neither skips a component.
 * panic()s on other kinds.
 */
EnginePlan fixedPlan(EngineKind kind, const Automaton &a);

/**
 * The immutable half of a planned run, compiled once and shared by
 * every PlannedSession and PlannedEngine over it, on any number of
 * threads. The automaton need not outlive it.
 *
 * The prefilter group is one PrefilteredNfa. The lazy-DFA and
 * interpreter groups are one interpreter, lazy-DFA components first,
 * with a LazyDfaProgram over that first id range and a view of the
 * interpreter entered only above it (the interpreter group): all
 * three share ids, so a session hands a run from the DFA to the
 * interpreter exactly. Every group compiles once, in place from its
 * member list of the automaton (NfaEngine(a, members)); the
 * automaton is never copied. Components the plan skips are in no
 * group, so a plan with every component outside a set skipped is
 * that set's program (ParallelRunner's shards, MultiDfaEngine's
 * fallback).
 */
class PlannedProgram
{
  public:
    /** Plan @p a from @p profiles with planComponents(). */
    PlannedProgram(const Automaton &a,
                   const std::vector<analysis::ComponentProfile>
                       &profiles,
                   const PlanOptions &opts = PlanOptions());

    /** Compile a given @p plan of @p a. @p profiles are read only
     *  for prefilter components' literals and windows (panic()s when
     *  the plan has some and they are missing). */
    PlannedProgram(const Automaton &a, EnginePlan plan,
                   const PlanOptions &opts = PlanOptions(),
                   const std::vector<analysis::ComponentProfile>
                       &profiles = {});

    const EnginePlan &plan() const { return plan_; }

    /** Scan literals the prefilter backend sweeps for (0 when no
     *  component was planned onto it). */
    size_t
    prefilterPatterns() const
    {
        return prefilter_ ? prefilter_->patternCount() : 0;
    }

    /** Resident bytes of the shared tables. */
    size_t footprintBytes() const;

  private:
    friend class PlannedSession;
    friend class PlannedEngine;

    EnginePlan plan_;
    /** PlanOptions::lazyCacheBytes: block runs' cache budget. */
    size_t lazyCacheBytes_;
    /** Null when no component was planned onto the prefilter. */
    std::unique_ptr<PrefilteredNfa> prefilter_;
    /** Lazy-DFA then interpreter components (null when both groups
     *  are empty); the lazy-DFA group is ids [0, lazyCount_). */
    std::unique_ptr<const NfaEngine> rest_;
    std::vector<ElementId> restToGlobal_;
    size_t lazyCount_ = 0;
    /** The DFA over rest_'s first lazyCount_ ids; null when there are
     *  none, or when they hold a counter (profiles that disagree with
     *  the automaton): sessions then interpret rest_ from the start. */
    std::unique_ptr<const LazyDfaProgram> lazyDfa_;
    /** rest_ entered only from id lazyCount_ up: the interpreter
     *  group beside the DFA (null without a DFA or without it). */
    std::unique_ptr<const NfaEngine> interpView_;
};

/**
 * The program @p kind runs @p a on: kAuto plans from @p profiles
 * (inferProfiles(a), e.g. an artifact's PROF section), inferring
 * them when none are given; kNfa and kLazyDfa compile fixedPlan()
 * and ignore @p profiles. panic()s on kMultiDfa.
 */
std::shared_ptr<const PlannedProgram>
compileProgram(EngineKind kind, const Automaton &a,
               const PlanOptions &opts = PlanOptions(),
               const std::vector<analysis::ComponentProfile> &profiles =
                   {});

/**
 * A cursor over one shared PlannedProgram, with the same canonical
 * results under any chunking as serial NfaEngine +
 * canonicalizeReports().
 *
 * The prefilter group streams through a PrefilteredNfa::Session.
 * The lazy-DFA group streams through a LazyDfaCursor over a cache
 * the session owns, beside one interpreter cursor over the rest
 * engine's ids that runs the interpreter group. That cache survives
 * reset(), so a pooled or reused session keeps it warm, and its
 * budget is EngineScratch::elementBytes() of the lazy-DFA group: the
 * part of that scratch the cursor stands in for. A transition that
 * would exceed it hands the run off: the DFA state-set is enabled in
 * the interpreter cursor at the same stream position, the cache is
 * freed, and the session interprets both groups in that cursor from
 * then on, across reset() too. The hand-off is exact, so results
 * never depend on where it happens. A kNfa program has neither a
 * prefilter nor a DFA: its session is the interpreter cursor.
 *
 * The session owns the guard poll clock: options.guard is polled
 * every kGuardCheckIntervalSymbols stream symbols regardless of
 * chunking, the serial engines' poll points, so a chunked stream
 * stops at the same prefix as a monolithic run. feed() returns the
 * bytes it consumed; once the guard fires, results() covers exactly
 * that prefix, engine.planned.guard_stops.<code> counts the stop,
 * and further feeds consume nothing until reset().
 *
 * Reports settle as the stream advances: at the end of each slice of
 * at most kSettleBytes of a feed, every backend's reports below a
 * watermark (the position, or the prefilter's low-water mark) are
 * counted in canonical order under the options then in force, so set
 * options before the first feed. Only the first reportRecordLimit
 * are kept, and report buffers larger than that (and than 256
 * records) are released at the end of a feed: a session recording
 * few reports stays small however many its stream produces. A DFA
 * that is its plan's only backend reports alone and in canonical
 * order, so it counts straight into the settled state. results()
 * adds the unsettled tail.
 *
 * A PlannedEngine's session differs in data only: its cache budget
 * is the program's PlanOptions::lazyCacheBytes, and it hands off at
 * that budget in the same way.
 */
class PlannedSession
{
  public:
    /** Compile a private program for @p a (inferring profiles). */
    explicit PlannedSession(const Automaton &a,
                            const PlanOptions &opts = PlanOptions());
    PlannedSession(const Automaton &a,
                   const std::vector<analysis::ComponentProfile>
                       &profiles,
                   const PlanOptions &opts = PlanOptions());

    /** A cursor over an already-compiled program (no compile). */
    explicit PlannedSession(std::shared_ptr<const PlannedProgram> program);

    /** Feed a chunk; returns bytes consumed (short exactly when
     *  options.guard stopped the session). */
    size_t feed(const uint8_t *data, size_t len);

    /** Longest run of a feed between two settles. */
    static constexpr size_t kSettleBytes = 64 * 1024;

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

    /** Resident bytes of this session's own state: the prefilter
     *  window (scratch, rolling buffer, hits, reports), the
     *  interpreter cursor, the lazy-DFA cache, and the
     *  settled and unsettled report records. The program's tables
     *  are shared and excluded (PlannedProgram::footprintBytes()). */
    size_t footprintBytes() const;

    /** Bytes a running session over a program of @p a holds, from
     *  the cursor's layout: the scratches and worklists (every
     *  element enabled), the report buffers' kept capacity and the
     *  lazy cache and prefilter window of the components @p profiles
     *  can route there (a fixed plan has no profiles, so none: kNfa's
     *  unit, not kLazyDfa's). The serve layer's admission unit;
     *  computed without compiling the program. */
    static size_t
    cursorBytes(const Automaton &a,
                const std::vector<analysis::ComponentProfile> &profiles,
                const PlanOptions &opts, size_t maxReportRecords);

    const EnginePlan &plan() const { return program_->plan(); }

    const std::shared_ptr<const PlannedProgram> &
    program() const
    {
        return program_;
    }

    const PrefilterStats &
    prefilterStats() const
    {
        static const PrefilterStats kNone;
        return prefilterSession_ ? prefilterSession_->stats() : kNone;
    }

    /** The lazy-DFA group's cache: its hit/miss counts, and the
     *  storage it holds until a hand-off frees it. */
    const LazyDfaCache &lazyCache() const { return lazyCache_; }

    /** True once the lazy-DFA group runs on the interpreter (after a
     *  hand-off, or from the start when the program has no DFA for
     *  it); false while it runs on the DFA or has no elements. */
    bool
    lazyInterpreted() const
    {
        return program_->lazyCount_ && !onDfa_;
    }

    SimOptions options;

  private:
    friend class PlannedEngine;

    /** A cursor whose lazy cache hands off at @p cacheBytes: the
     *  lazy group's scratch bytes (streams) or the program's
     *  lazyCacheBytes_ (blocks). */
    PlannedSession(std::shared_ptr<const PlannedProgram> program,
                   size_t cacheBytes);

    /** Move the DFA's state-set into the interpreter cursor, which
     *  then runs rest_; free the cache. */
    void handOff();
    /** (Re)open the cursors at stream position 0. */
    void restart();
    /** Count every backend's reports below the watermark into
     *  settled_; false when no backend held a report. */
    bool settle();
    /** @p settled plus the unsettled tail, over the consumed
     *  prefix. */
    SimResult collect(SimResult settled) const;

    /** Declared first: the cursors below refer into it. */
    std::shared_ptr<const PlannedProgram> program_;
    std::unique_ptr<PrefilteredNfa::Session> prefilterSession_;

    LazyDfaCache lazyCache_;
    LazyDfaCursor lazyCursor_;
    /** The interpreter cursor: interpView_ while on the DFA, rest_
     *  after. Its and the DFA's reports are rest ids. */
    EngineScratch restScratch_;
    SimResult restResult_;
    bool onDfa_ = false;

    /** Counts and the first records of the settled reports (a lone
     *  DFA's too), and the last offset tallyReports() counted. */
    SimResult settled_;
    uint64_t settledOffset_ = ~uint64_t(0);
    /** One settle's batch (global ids); empty between settles. */
    std::vector<Report> settling_;

    uint64_t t_ = 0;
    Status guardStatus_;
};

/**
 * Block mode: one input is a one-chunk stream. A PlannedEngine is a
 * PlannedSession over a shared PlannedProgram, and simulate() is
 * reset(), one feed() and results(). The session's lazy cache, with
 * the block budget PlanOptions::lazyCacheBytes, stays warm across
 * calls until it fills; the run then hands off to the interpreter
 * mid-input, exactly, and later calls interpret from the start.
 *
 * simulate() mutates the session, so a PlannedEngine must not be
 * shared by concurrently simulating threads; ParallelRunner gives
 * each worker slot one over the runner's one program. Reports come
 * out in canonical (offset, element, code) order with original
 * element ids.
 */
class PlannedEngine
{
  public:
    /** Compile a private program, inferring profiles. The automaton
     *  need not outlive the engine. */
    explicit PlannedEngine(const Automaton &a,
                           const PlanOptions &opts = PlanOptions());

    /** Plan from precomputed profiles (inferProfiles(a) — sharing one
     *  inference across many engines). */
    PlannedEngine(const Automaton &a,
                  const std::vector<analysis::ComponentProfile> &profiles,
                  const PlanOptions &opts = PlanOptions());

    /** A cursor over an already-compiled program (no compile). */
    explicit PlannedEngine(std::shared_ptr<const PlannedProgram> program);

    SimResult simulate(const uint8_t *input, size_t len,
                       const SimOptions &opts = SimOptions());

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions())
    {
        return simulate(input.data(), input.size(), opts);
    }

    const EnginePlan &plan() const { return session_.plan(); }

    const std::shared_ptr<const PlannedProgram> &
    program() const
    {
        return session_.program();
    }

    /** Scan literals the prefilter backend sweeps for. */
    size_t
    prefilterPatterns() const
    {
        return session_.program()->prefilterPatterns();
    }

    /** Prefilter effectiveness of the most recent simulate() (all
     *  zero when the plan has no prefilter group). */
    const PrefilterStats &
    lastPrefilterStats() const
    {
        return session_.prefilterStats();
    }

    /** The lazy-DFA group's cache, warm across simulate() calls
     *  until a hand-off frees it: its state, transition, hit and miss
     *  counts. */
    const LazyDfaCache &lazyCache() const { return session_.lazyCache(); }

    /** True once the lazy-DFA group runs on the interpreter; see
     *  PlannedSession::lazyInterpreted(). */
    bool lazyInterpreted() const { return session_.lazyInterpreted(); }

  private:
    PlannedSession session_;
};

/** Feed @p data to a cursor's @p feed in @p chunk-byte slices; a
 *  short feed means the guard stopped the stream, so later slices
 *  are not offered. */
template <typename Feed>
void
feedChunks(const uint8_t *data, size_t len, size_t chunk, Feed &&feed)
{
    for (size_t pos = 0; pos < len;) {
        const size_t want = std::min(chunk, len - pos);
        const size_t got = feed(data + pos, want);
        pos += got;
        if (got < want)
            break;
    }
}

} // namespace azoo

#endif // AZOO_ENGINE_PLANNER_HH
